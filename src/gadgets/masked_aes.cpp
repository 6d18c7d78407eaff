#include "src/gadgets/masked_aes.hpp"

#include "src/common/check.hpp"
#include "src/common/names.hpp"
#include "src/gadgets/masked_sbox.hpp"

namespace sca::gadgets {

using netlist::InputRole;
using netlist::Netlist;
using netlist::ShareLabel;
using netlist::SignalId;
using netlist::StateRole;

namespace {

// xtime (multiplication by 0x02 in GF(2^8)/0x11B) as wiring + 3 XORs.
Bus xtime_bus(Netlist& nl, const Bus& a) {
  Bus out(8);
  out[0] = a[7];
  out[1] = nl.xor_(a[0], a[7]);
  out[2] = a[1];
  out[3] = nl.xor_(a[2], a[7]);
  out[4] = nl.xor_(a[3], a[7]);
  out[5] = a[4];
  out[6] = a[5];
  out[7] = a[6];
  return out;
}

// One MixColumns column (4 bytes in, 4 bytes out) on one share.
std::vector<Bus> mix_column(Netlist& nl, const std::vector<Bus>& col) {
  SCA_ASSERT(col.size() == 4, "mix_column: need 4 bytes");
  std::vector<Bus> x2(4);
  for (std::size_t i = 0; i < 4; ++i) x2[i] = xtime_bus(nl, col[i]);
  auto mul3 = [&](std::size_t i) { return xor_bus(nl, x2[i], col[i]); };
  std::vector<Bus> out(4);
  out[0] = xor_bus(nl, xor_bus(nl, x2[0], mul3(1)), xor_bus(nl, col[2], col[3]));
  out[1] = xor_bus(nl, xor_bus(nl, col[0], x2[1]), xor_bus(nl, mul3(2), col[3]));
  out[2] = xor_bus(nl, xor_bus(nl, col[0], col[1]), xor_bus(nl, x2[2], mul3(3)));
  out[3] = xor_bus(nl, xor_bus(nl, mul3(0), col[1]), xor_bus(nl, col[2], x2[3]));
  return out;
}

// Round-constant decoder: rcon(round) for round in 1..10, as OR trees over
// round-equality signals. Output bits are 0 outside 1..10.
Bus rcon_decoder(Netlist& nl, const Bus& round) {
  static constexpr std::uint8_t kRcon[11] = {0x00, 0x01, 0x02, 0x04, 0x08, 0x10,
                                             0x20, 0x40, 0x80, 0x1B, 0x36};
  std::vector<SignalId> eq(11);
  for (unsigned r = 1; r <= 10; ++r) eq[r] = eq_const(nl, round, r);
  Bus out(8);
  for (std::size_t bit = 0; bit < 8; ++bit) {
    std::vector<SignalId> terms;
    for (unsigned r = 1; r <= 10; ++r)
      if ((kRcon[r] >> bit) & 1u) terms.push_back(eq[r]);
    if (terms.empty()) {
      out[bit] = nl.constant(false);
      continue;
    }
    SignalId acc = terms[0];
    for (std::size_t i = 1; i < terms.size(); ++i) acc = nl.or_(acc, terms[i]);
    out[bit] = acc;
  }
  return out;
}

}  // namespace

MaskedAes build_masked_aes128(Netlist& nl, const MaskedAesOptions& opts,
                              const std::string& scope) {
  nl.push_scope(scope);
  MaskedAes aes;

  // --- primary inputs ---------------------------------------------------------
  aes.pt.resize(2);
  aes.key.resize(2);
  for (std::uint32_t share = 0; share < 2; ++share) {
    for (std::uint32_t byte = 0; byte < 16; ++byte) {
      aes.pt[share].push_back(make_input_bus(
          nl, 8, InputRole::kShare,
          common::make_name("pt", byte, "_s", share, "_"),
          /*secret=*/byte, share));
      aes.key[share].push_back(make_input_bus(
          nl, 8, InputRole::kShare,
          common::make_name("key", byte, "_s", share, "_"),
          /*secret=*/16 + byte, share));
    }
  }

  // --- state and key registers (with feedback, so placeholders first) ----------
  // Each register carries a state annotation so netlist::extract_slice can
  // cut the round feedback and keep the lint attribution: annotation group
  // `byte` for the state bank, 16 + `byte` for the key bank — mirroring the
  // secret groups of the primary inputs above. The controller registers stay
  // unannotated; they are untainted and slice extraction infers them public.
  auto make_reg_bank = [&](const std::string& base, std::uint32_t group_base) {
    std::vector<std::vector<Bus>> bank(2);
    for (std::uint32_t share = 0; share < 2; ++share)
      for (std::uint32_t byte = 0; byte < 16; ++byte) {
        const std::uint32_t group = group_base + byte;
        nl.set_state_group_name(
            group, common::make_name(nl.scope_prefix(), base, byte));
        Bus bus;
        for (std::uint32_t bit = 0; bit < 8; ++bit) {
          bus.push_back(nl.make_reg_placeholder());
          nl.annotate_register(bus.back(), StateRole::kShare,
                               ShareLabel{group, share, bit});
        }
        name_bus(nl, bus, common::make_name(base, byte, "_s", share, "_"));
        bank[share].push_back(bus);
      }
    return bank;
  };
  std::vector<std::vector<Bus>> state = make_reg_bank("st", 0);
  std::vector<std::vector<Bus>> keyreg = make_reg_bank("k", 16);

  // --- controller ---------------------------------------------------------------
  nl.push_scope("ctrl");
  Bus phase;  // 3-bit counter, 0..5
  for (std::size_t i = 0; i < 3; ++i) phase.push_back(nl.make_reg_placeholder());
  name_bus(nl, phase, "phase");
  Bus round;  // 4-bit counter, 0..11
  for (std::size_t i = 0; i < 4; ++i) round.push_back(nl.make_reg_placeholder());
  name_bus(nl, round, "round");

  const SignalId phase_wrap = eq_const(nl, phase, 5);
  const Bus phase_next =
      mux_bus(nl, phase_wrap, increment_bus(nl, phase),
              {nl.constant(false), nl.constant(false), nl.constant(false)});
  for (std::size_t i = 0; i < 3; ++i) nl.connect_reg(phase[i], phase_next[i]);

  // The core free-runs: after the last round the counter wraps to 0 and the
  // next period reloads a fresh (re-shared) plaintext/key from the inputs.
  // A halted design would freeze its ciphertext sharing, which is both
  // unrealistic and poisonous for statistical evaluation (frozen shares make
  // consecutive samples perfectly correlated).
  const SignalId latch = eq_const(nl, phase, 0);
  nl.name_signal(latch, "latch");
  const SignalId is_init = eq_const(nl, round, 0);
  const SignalId is_last = eq_const(nl, round, 10);
  const Bus zero4 = {nl.constant(false), nl.constant(false), nl.constant(false),
                     nl.constant(false)};
  const Bus round_inc = mux_bus(nl, is_last, increment_bus(nl, round), zero4);
  const Bus round_next = mux_bus(nl, latch, round, round_inc);
  for (std::size_t i = 0; i < 4; ++i) nl.connect_reg(round[i], round_next[i]);

  // done: high while the state registers hold a finished ciphertext (round
  // wrapped back to 0 after at least one full encryption).
  const SignalId ran = nl.make_reg_placeholder();
  nl.name_signal(ran, "ran");
  nl.connect_reg(ran, nl.or_(ran, is_last));
  const SignalId is_done = nl.and_(is_init, ran);
  nl.name_signal(is_done, "done");
  const Bus rcon = rcon_decoder(nl, round);
  nl.pop_scope();

  // --- SubBytes: 16 Sbox instances, each with private randomness ---------------
  MaskedSboxOptions sbox_opts;
  sbox_opts.include_kronecker = true;
  sbox_opts.kron_plan = opts.kron_plan;
  sbox_opts.include_affine = true;

  auto make_sbox = [&](const std::string& name, const Bus& s0, const Bus& s1) {
    nl.push_scope(name);
    const Bus r = make_input_bus(nl, 8, InputRole::kRandom, "R");
    const Bus rp = make_input_bus(nl, 8, InputRole::kRandom, "Rp");
    std::vector<SignalId> fresh;
    for (std::size_t k = 0; k < opts.kron_plan.fresh_count(); ++k)
      fresh.push_back(
          nl.add_input(InputRole::kRandom, common::make_name("f", k)));
    nl.pop_scope();
    aes.nonzero_random_buses.push_back(r);
    return build_masked_sbox_core(nl, {s0, s1}, r, rp, fresh, sbox_opts, name);
  };

  std::vector<std::vector<Bus>> sb(2, std::vector<Bus>(16));
  for (std::uint32_t byte = 0; byte < 16; ++byte) {
    const MaskedSbox sbox = make_sbox(common::make_name("sb", byte),
                                      state[0][byte], state[1][byte]);
    sb[0][byte] = sbox.out_shares[0];
    sb[1][byte] = sbox.out_shares[1];
  }

  // --- linear layers per share ---------------------------------------------------
  // ShiftRows: byte (r, c) at index c*4+r moves from ((c+r)%4)*4+r.
  std::vector<std::vector<Bus>> sr(2, std::vector<Bus>(16));
  for (std::uint32_t share = 0; share < 2; ++share)
    for (std::uint32_t r = 0; r < 4; ++r)
      for (std::uint32_t c = 0; c < 4; ++c)
        sr[share][c * 4 + r] = sb[share][((c + r) % 4) * 4 + r];

  std::vector<std::vector<Bus>> mc(2, std::vector<Bus>(16));
  for (std::uint32_t share = 0; share < 2; ++share)
    for (std::uint32_t c = 0; c < 4; ++c) {
      const std::vector<Bus> col = {sr[share][c * 4 + 0], sr[share][c * 4 + 1],
                                    sr[share][c * 4 + 2], sr[share][c * 4 + 3]};
      const std::vector<Bus> mixed = mix_column(nl, col);
      for (std::uint32_t r = 0; r < 4; ++r) mc[share][c * 4 + r] = mixed[r];
    }

  // --- key schedule ----------------------------------------------------------------
  // SubWord over RotWord(last word): bytes 13, 14, 15, 12 of the key bank.
  std::vector<std::vector<Bus>> subword(2, std::vector<Bus>(4));
  static constexpr std::uint32_t kRotWord[4] = {13, 14, 15, 12};
  for (std::uint32_t i = 0; i < 4; ++i) {
    const MaskedSbox sbox = make_sbox(common::make_name("ks", i),
                                      keyreg[0][kRotWord[i]],
                                      keyreg[1][kRotWord[i]]);
    subword[0][i] = sbox.out_shares[0];
    subword[1][i] = sbox.out_shares[1];
  }

  std::vector<std::vector<Bus>> key_next(2, std::vector<Bus>(16));
  for (std::uint32_t share = 0; share < 2; ++share) {
    for (std::uint32_t i = 0; i < 4; ++i) {
      Bus t = xor_bus(nl, keyreg[share][i], subword[share][i]);
      // Rcon is public, so it lands on byte 0 of share 0 only.
      if (share == 0 && i == 0) t = xor_bus(nl, t, rcon);
      key_next[share][i] = t;
    }
    for (std::uint32_t i = 4; i < 16; ++i)
      key_next[share][i] =
          xor_bus(nl, keyreg[share][i], key_next[share][i - 4]);
  }

  // --- round result and register updates ----------------------------------------
  for (std::uint32_t share = 0; share < 2; ++share) {
    for (std::uint32_t byte = 0; byte < 16; ++byte) {
      // Round r in 1..9: MC(SR(SB)) ^ rk_r; round 10: SR(SB) ^ rk_10.
      const Bus pre = mux_bus(nl, is_last, mc[share][byte], sr[share][byte]);
      const Bus round_result = xor_bus(nl, pre, key_next[share][byte]);
      const Bus initial =
          xor_bus(nl, aes.pt[share][byte], aes.key[share][byte]);
      const Bus loaded = mux_bus(nl, is_init, round_result, initial);
      const Bus state_d = mux_bus(nl, latch, state[share][byte], loaded);
      for (std::size_t bit = 0; bit < 8; ++bit)
        nl.connect_reg(state[share][byte][bit], state_d[bit]);

      const Bus key_loaded =
          mux_bus(nl, is_init, key_next[share][byte], aes.key[share][byte]);
      const Bus key_d = mux_bus(nl, latch, keyreg[share][byte], key_loaded);
      for (std::size_t bit = 0; bit < 8; ++bit)
        nl.connect_reg(keyreg[share][byte][bit], key_d[bit]);
    }
  }

  aes.ct = state;
  aes.done = is_done;
  nl.add_output("done", is_done);
  for (std::uint32_t share = 0; share < 2; ++share)
    for (std::uint32_t byte = 0; byte < 16; ++byte)
      for (std::size_t bit = 0; bit < 8; ++bit)
        nl.add_output(common::make_name("ct", byte, "_s", share, "_", bit),
                      state[share][byte][bit]);

  nl.pop_scope();
  return aes;
}

}  // namespace sca::gadgets
