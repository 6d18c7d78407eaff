#include "src/service/daemon.hpp"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <deque>
#include <filesystem>
#include <map>
#include <memory>
#include <vector>

#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/wait.h>
#include <unistd.h>

#include "src/common/check.hpp"
#include "src/common/names.hpp"
#include "src/service/cache.hpp"
#include "src/service/job.hpp"
#include "src/service/json.hpp"
#include "src/service/net.hpp"
#include "src/service/worker.hpp"

namespace sca::service {

namespace fs = std::filesystem;
using common::require;

namespace {

volatile std::sig_atomic_t g_stop = 0;
void stop_handler(int) { g_stop = 1; }

enum class JobState { kQueued, kRunning, kDone, kError };

struct JobRecord {
  std::string id;
  JobSpec spec;
  std::string key;
  JobState state = JobState::kQueued;
  std::string checkpoint;     ///< per-job checkpoint file ("" for lint)
  std::uint64_t next_seq = 1; ///< ticket sequence counter
  bool ticket_in_flight = false;
  std::size_t tickets_issued = 0;
  std::size_t tickets_reissued = 0;
  bool cached = false;        ///< verdict served from the cache at submit
  Json verdict;
  std::string error;
  std::size_t steps_done = 0;
  std::size_t steps_total = 0;
  std::size_t simulations_done = 0;
  std::vector<int> watchers;  ///< client fds streaming this job
  std::vector<int> waiters;   ///< client fds parked on result --wait
};

struct WorkerSlot {
  pid_t pid = -1;
  int fd = -1;
  LineBuffer frames;
  std::string job;  ///< id of the job whose ticket is in flight ("" = idle)
};

struct ClientSlot {
  int fd = -1;
  LineBuffer frames;
};

class Daemon {
 public:
  explicit Daemon(const DaemonOptions& options)
      : options_(options), cache_(options.cache_dir) {
    require(!options_.socket_path.empty(), "daemon: socket_path required");
    require(!options_.work_dir.empty(), "daemon: work_dir required");
    require(options_.workers >= 1, "daemon: need at least one worker");
    std::error_code ec;
    fs::create_directories(options_.work_dir, ec);
    require(!ec, "daemon: cannot create work_dir " + options_.work_dir + ": " +
                     ec.message());
    listen_fd_ = listen_unix(options_.socket_path);
  }

  ~Daemon() {
    for (auto& [fd, client] : clients_) ::close(fd);
    shutdown_workers();
    if (listen_fd_ >= 0) ::close(listen_fd_);
    ::unlink(options_.socket_path.c_str());
  }

  int run() {
    std::signal(SIGPIPE, SIG_IGN);
    std::signal(SIGTERM, stop_handler);
    std::signal(SIGINT, stop_handler);
    for (unsigned i = 0; i < options_.workers; ++i) spawn_worker();
    while (!g_stop && !shutdown_requested_) {
      dispatch_tickets();
      poll_once();
    }
    shutdown_workers();
    return 0;
  }

 private:
  // --- worker pool --------------------------------------------------------

  void spawn_worker() {
    int sv[2];
    require(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) == 0,
            std::string("daemon: socketpair(): ") + std::strerror(errno));
    const pid_t pid = ::fork();
    require(pid >= 0, std::string("daemon: fork(): ") + std::strerror(errno));
    if (pid == 0) {
      // Child: drop every daemon-side fd so the worker holds nothing but
      // its own pipe, then run the ticket loop and exit without touching
      // parent state (no atexit, no stream flushes).
      ::close(sv[0]);
      ::close(listen_fd_);
      for (const auto& [fd, client] : clients_) ::close(fd);
      for (const auto& w : workers_)
        if (w.fd >= 0) ::close(w.fd);
      ::_exit(worker_main(sv[1]));
    }
    ::close(sv[1]);
    WorkerSlot slot;
    slot.pid = pid;
    slot.fd = sv[0];
    workers_.push_back(std::move(slot));
  }

  void shutdown_workers() {
    for (auto& w : workers_) {
      if (w.fd >= 0) {
        send_all(w.fd, "{\"type\":\"shutdown\"}\n");
        ::close(w.fd);
        w.fd = -1;
      }
    }
    for (auto& w : workers_) {
      if (w.pid > 0) {
        int status = 0;
        if (::waitpid(w.pid, &status, WNOHANG) == 0) {
          ::kill(w.pid, SIGKILL);
          ::waitpid(w.pid, &status, 0);
        }
        w.pid = -1;
      }
    }
    workers_.clear();
  }

  void on_worker_death(std::size_t index) {
    WorkerSlot& w = workers_[index];
    int status = 0;
    ::waitpid(w.pid, &status, 0);
    ::close(w.fd);
    const std::string job_id = w.job;
    workers_.erase(workers_.begin() + static_cast<std::ptrdiff_t>(index));
    ++workers_restarted_;
    if (!shutdown_requested_ && !g_stop) spawn_worker();
    if (job_id.empty()) return;
    // The in-flight ticket died with the worker. The checkpoint on disk is
    // the last atomically-saved snapshot, so re-issuing the ticket resumes
    // from there and the final verdict is unchanged.
    JobRecord* job = find_job(job_id);
    if (!job || job->state != JobState::kRunning) return;
    job->ticket_in_flight = false;
    ++job->tickets_reissued;
    ++tickets_reissued_;
    runnable_.push_front(job_id);
  }

  // --- job lifecycle ------------------------------------------------------

  JobRecord* find_job(const std::string& id) {
    const auto it = jobs_.find(id);
    return it == jobs_.end() ? nullptr : it->second.get();
  }

  std::size_t active_jobs() const {
    std::size_t n = 0;
    for (const auto& [id, job] : jobs_)
      if (job->state == JobState::kQueued || job->state == JobState::kRunning)
        ++n;
    return n;
  }

  JobRecord* submit(JobSpec spec, bool& cache_hit, std::string& merged_with) {
    cache_hit = false;
    merged_with.clear();
    if (spec.kind == JobKind::kCampaign && spec.stages == 0)
      spec.stages = options_.default_stages;
    const std::string key = spec.cache_key();
    // In-flight dedupe: a second submission of the same work attaches to
    // the running job instead of redoing it.
    for (auto& [id, job] : jobs_) {
      if (job->key == key &&
          (job->state == JobState::kQueued || job->state == JobState::kRunning)) {
        merged_with = id;
        return job.get();
      }
    }
    require(active_jobs() < options_.max_queue, "daemon: job queue full");
    auto job = std::make_unique<JobRecord>();
    job->id = common::make_name("j", next_job_++);
    job->spec = std::move(spec);
    job->key = key;
    if (job->spec.kind != JobKind::kLint)
      job->checkpoint = options_.work_dir + "/" + job->id + ".ckpt";
    if (auto verdict = cache_.lookup(key)) {
      cache_hit = true;
      ++cache_hits_;
      job->cached = true;
      job->state = JobState::kDone;
      job->verdict = std::move(*verdict);
    } else {
      ++cache_misses_;
      job->state = JobState::kQueued;
      runnable_.push_back(job->id);
    }
    JobRecord* out = job.get();
    jobs_[job->id] = std::move(job);
    return out;
  }

  void dispatch_tickets() {
    while (!runnable_.empty()) {
      WorkerSlot* idle = nullptr;
      for (auto& w : workers_)
        if (w.job.empty() && w.fd >= 0) {
          idle = &w;
          break;
        }
      if (!idle) return;
      const std::string job_id = runnable_.front();
      runnable_.pop_front();
      JobRecord* job = find_job(job_id);
      if (!job || job->ticket_in_flight ||
          (job->state != JobState::kQueued && job->state != JobState::kRunning))
        continue;
      Json ticket = Json::object();
      ticket.set("type", "ticket");
      ticket.set("job", job->id);
      ticket.set("seq", job->next_seq++);
      ticket.set("ckpt", job->checkpoint);
      ticket.set("spec", job->spec.to_json());
      if (!send_all(idle->fd, ticket.dump() + "\n")) {
        // The worker is already dead; its EOF will be reaped by poll and
        // the job re-queued there. Put the ticket back for now.
        runnable_.push_front(job_id);
        return;
      }
      job->state = JobState::kRunning;
      job->ticket_in_flight = true;
      ++job->tickets_issued;
      idle->job = job->id;
    }
  }

  void finish_job(JobRecord* job, Json verdict) {
    job->state = JobState::kDone;
    job->verdict = std::move(verdict);
    if (!job->cached) cache_.store(job->key, job->verdict);
    cleanup_checkpoint(job);
    notify_done(job);
  }

  void fail_job(JobRecord* job, std::string error) {
    job->state = JobState::kError;
    job->error = std::move(error);
    cleanup_checkpoint(job);
    notify_done(job);
  }

  void cleanup_checkpoint(JobRecord* job) {
    if (job->checkpoint.empty()) return;
    std::error_code ec;
    fs::remove(job->checkpoint, ec);  // best effort; workdir is scratch
  }

  Json result_frame(const JobRecord* job) const {
    Json frame = Json::object();
    frame.set("type", "result");
    frame.set("job", job->id);
    frame.set("status", job->state == JobState::kDone ? "done" : "error");
    frame.set("cached", job->cached);
    frame.set("tickets_issued", job->tickets_issued);
    frame.set("tickets_reissued", job->tickets_reissued);
    frame.set("simulations_done", job->cached ? 0 : job->simulations_done);
    if (job->state == JobState::kDone) frame.set("verdict", job->verdict);
    if (job->state == JobState::kError) frame.set("error", job->error);
    return frame;
  }

  void notify_done(JobRecord* job) {
    const std::string line = result_frame(job).dump() + "\n";
    std::vector<int> targets = job->waiters;
    for (const int fd : job->watchers)
      if (std::find(targets.begin(), targets.end(), fd) == targets.end())
        targets.push_back(fd);
    job->waiters.clear();
    job->watchers.clear();
    for (const int fd : targets) send_to_client(fd, line);
  }

  // --- worker frames ------------------------------------------------------

  void on_worker_frame(WorkerSlot& worker, const std::string& line) {
    Json frame;
    try {
      frame = Json::parse(line);
    } catch (const common::Error&) {
      return;  // never let a mangled worker line kill the daemon
    }
    const std::string type = frame.get_string("type", "");
    if (type == "ready") return;
    JobRecord* job = find_job(frame.get_string("job", ""));
    if (!job) return;
    if (type == "stage") {
      const std::string relay = line + "\n";
      for (const int fd : std::vector<int>(job->watchers))
        send_to_client(fd, relay);
      return;
    }
    if (type == "ticket_done") {
      worker.job.clear();
      job->ticket_in_flight = false;
      job->steps_done = frame.get_uint("steps_done", job->steps_done);
      job->steps_total = frame.get_uint("steps_total", job->steps_total);
      job->simulations_done =
          frame.get_uint("simulations_done", job->simulations_done);
      if (frame.get_bool("done", false)) {
        const Json* verdict = frame.get("verdict");
        if (verdict)
          finish_job(job, *verdict);
        else
          fail_job(job, "worker reported done without a verdict");
      } else {
        runnable_.push_back(job->id);
      }
      return;
    }
    if (type == "ticket_error") {
      worker.job.clear();
      job->ticket_in_flight = false;
      fail_job(job, frame.get_string("error", "worker error"));
      return;
    }
  }

  // --- client protocol ----------------------------------------------------

  void send_to_client(int fd, const std::string& line) {
    const auto it = clients_.find(fd);
    if (it == clients_.end()) return;
    if (!send_all(fd, line)) drop_client(fd);
  }

  void reply(int fd, const Json& frame) { send_to_client(fd, frame.dump() + "\n"); }

  void reply_error(int fd, const std::string& message) {
    Json frame = Json::object();
    frame.set("type", "error");
    frame.set("error", message);
    reply(fd, frame);
  }

  void drop_client(int fd) {
    const auto it = clients_.find(fd);
    if (it == clients_.end()) return;
    for (auto& [id, job] : jobs_) {
      auto& ws = job->watchers;
      ws.erase(std::remove(ws.begin(), ws.end(), fd), ws.end());
      auto& ps = job->waiters;
      ps.erase(std::remove(ps.begin(), ps.end(), fd), ps.end());
    }
    ::close(fd);
    clients_.erase(it);
  }

  void on_client_frame(int fd, const std::string& line) {
    Json frame;
    try {
      frame = Json::parse(line);
    } catch (const common::Error& e) {
      reply_error(fd, e.what());
      return;
    }
    try {
      const std::string cmd = frame.get_string("cmd", "");
      if (cmd == "submit") {
        const JobSpec spec = JobSpec::from_json(frame.at("spec"));
        bool cache_hit = false;
        std::string merged_with;
        JobRecord* job = submit(spec, cache_hit, merged_with);
        Json ack = Json::object();
        ack.set("type", "submitted");
        ack.set("job", job->id);
        ack.set("key", job->key);
        ack.set("cached", cache_hit);
        if (!merged_with.empty()) ack.set("merged", true);
        reply(fd, ack);
      } else if (cmd == "watch") {
        JobRecord* job = find_job(frame.get_string("job", ""));
        require(job != nullptr, "daemon: unknown job");
        Json ack = Json::object();
        ack.set("type", "watching");
        ack.set("job", job->id);
        reply(fd, ack);
        if (job->state == JobState::kDone || job->state == JobState::kError)
          send_to_client(fd, result_frame(job).dump() + "\n");
        else
          job->watchers.push_back(fd);
      } else if (cmd == "result") {
        JobRecord* job = find_job(frame.get_string("job", ""));
        require(job != nullptr, "daemon: unknown job");
        if (job->state == JobState::kDone || job->state == JobState::kError) {
          reply(fd, result_frame(job));
        } else if (frame.get_bool("wait", false)) {
          job->waiters.push_back(fd);
        } else {
          Json pending = Json::object();
          pending.set("type", "pending");
          pending.set("job", job->id);
          pending.set("steps_done", job->steps_done);
          pending.set("steps_total", job->steps_total);
          reply(fd, pending);
        }
      } else if (cmd == "status") {
        Json s = Json::object();
        s.set("type", "status");
        s.set("workers", workers_.size());
        s.set("workers_restarted", workers_restarted_);
        s.set("tickets_reissued", tickets_reissued_);
        s.set("cache_hits", cache_hits_);
        s.set("cache_misses", cache_misses_);
        s.set("cache_entries", cache_.size());
        s.set("jobs_active", active_jobs());
        s.set("jobs_total", jobs_.size());
        Json pids = Json::array();
        Json busy = Json::array();
        for (const auto& w : workers_) {
          pids.push_back(static_cast<std::int64_t>(w.pid));
          if (!w.job.empty())
            busy.push_back(static_cast<std::int64_t>(w.pid));
        }
        s.set("worker_pids", std::move(pids));
        s.set("busy_pids", std::move(busy));
        reply(fd, s);
      } else if (cmd == "shutdown") {
        Json bye = Json::object();
        bye.set("type", "bye");
        reply(fd, bye);
        shutdown_requested_ = true;
      } else {
        reply_error(fd, "daemon: unknown cmd '" + cmd + "'");
      }
    } catch (const common::Error& e) {
      reply_error(fd, e.what());
    }
  }

  // --- event loop ---------------------------------------------------------

  void accept_clients() {
    while (true) {
      const int fd = ::accept(listen_fd_, nullptr, nullptr);
      if (fd < 0) return;  // EAGAIN/EWOULDBLOCK: drained
      timeval tv{};
      tv.tv_sec = options_.send_timeout_ms / 1000;
      tv.tv_usec = static_cast<long>(options_.send_timeout_ms % 1000) * 1000;
      ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
      clients_[fd];  // default-construct the slot
      clients_[fd].fd = fd;
    }
  }

  void poll_once() {
    std::vector<pollfd> fds;
    fds.push_back({listen_fd_, POLLIN, 0});
    const std::size_t worker_base = fds.size();
    for (const auto& w : workers_) fds.push_back({w.fd, POLLIN, 0});
    const std::size_t client_base = fds.size();
    std::vector<int> client_fds;
    for (const auto& [fd, client] : clients_) {
      client_fds.push_back(fd);
      fds.push_back({fd, POLLIN, 0});
    }
    const int n = ::poll(fds.data(), fds.size(), 200);
    if (n <= 0) return;

    if (fds[0].revents & POLLIN) accept_clients();

    // Workers first: ticket completions free workers for dispatch.
    std::vector<std::size_t> dead;
    for (std::size_t i = 0; i < workers_.size(); ++i) {
      const short revents = fds[worker_base + i].revents;
      if (!revents) continue;
      char buf[65536];
      const ssize_t got = ::recv(workers_[i].fd, buf, sizeof(buf), 0);
      if (got > 0) {
        workers_[i].frames.append(buf, static_cast<std::size_t>(got));
        std::string line;
        while (workers_[i].frames.next(line))
          on_worker_frame(workers_[i], line);
      } else if (got == 0 || (got < 0 && errno != EINTR && errno != EAGAIN)) {
        dead.push_back(i);
      }
    }
    // Reap back-to-front so stored indices stay valid.
    for (auto it = dead.rbegin(); it != dead.rend(); ++it) on_worker_death(*it);

    for (std::size_t i = 0; i < client_fds.size(); ++i) {
      const short revents = fds[client_base + i].revents;
      if (!revents) continue;
      const int fd = client_fds[i];
      const auto it = clients_.find(fd);
      if (it == clients_.end()) continue;  // dropped by an earlier handler
      char buf[65536];
      const ssize_t got = ::recv(fd, buf, sizeof(buf), 0);
      if (got <= 0) {
        if (got < 0 && (errno == EINTR || errno == EAGAIN)) continue;
        drop_client(fd);
        continue;
      }
      it->second.frames.append(buf, static_cast<std::size_t>(got));
      std::string line;
      bool dropped = false;
      while (!dropped && it->second.frames.next(line)) {
        if (line.size() > options_.max_frame_bytes) {
          reply_error(fd, "daemon: frame exceeds max_frame_bytes");
          drop_client(fd);
          dropped = true;
          break;
        }
        on_client_frame(fd, line);
        if (clients_.find(fd) == clients_.end()) dropped = true;
      }
      if (!dropped && it->second.frames.pending() > options_.max_frame_bytes) {
        reply_error(fd, "daemon: frame exceeds max_frame_bytes");
        drop_client(fd);
      }
    }
  }

  DaemonOptions options_;
  VerdictCache cache_;
  int listen_fd_ = -1;
  bool shutdown_requested_ = false;
  std::vector<WorkerSlot> workers_;
  std::map<int, ClientSlot> clients_;
  std::map<std::string, std::unique_ptr<JobRecord>> jobs_;
  std::deque<std::string> runnable_;
  std::uint64_t next_job_ = 1;
  std::size_t workers_restarted_ = 0;
  std::size_t tickets_reissued_ = 0;
  std::size_t cache_hits_ = 0;
  std::size_t cache_misses_ = 0;
};

}  // namespace

int run_daemon(const DaemonOptions& options) {
  Daemon daemon(options);
  return daemon.run();
}

}  // namespace sca::service
