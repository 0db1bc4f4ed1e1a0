#include "hub_io.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>
#include <arpa/inet.h>

#include <cerrno>
#include <csignal>
#include <ctime>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Waits up to `timeout_ms` for `pid` to exit; true and `status` set once
/// it has been reaped.
bool wait_exit(pid_t pid, int timeout_ms, int& status) {
  for (int waited = 0; waited <= timeout_ms; waited += 5) {
    const pid_t r = ::waitpid(pid, &status, WNOHANG);
    if (r == pid) return true;
    if (r < 0 && errno != EINTR) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

/// record_of_seq value of a request whose phase ended unanswered.
constexpr std::size_t kExpired = static_cast<std::size_t>(-1);

}  // namespace

HubdProcess::HubdProcess(const std::string& binary,
                         const std::string& work_dir) {
  const std::string tag = std::to_string(::getpid());
  const std::string port_file = work_dir + "/hubd-" + tag + ".port";
  log_path_ = work_dir + "/hubd-" + tag + ".log";
  ::unlink(port_file.c_str());
  const std::string workers = std::to_string(kHubWorkers);
  const std::string sensor = std::to_string(kSensorDevice) + "=" +
                             std::to_string(kHubSensorReading);
  std::vector<std::string> args = {binary,        "--workers",  workers,
                                   "--port",      "0",          "--port-file",
                                   port_file,     "--key-seed", kHubKeySeed,
                                   "--anchor",    kHubAnchor,   "--sensor",
                                   sensor};
  std::vector<char*> argv;
  for (auto& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  const int log_fd =
      ::open(log_path_.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (log_fd < 0) throw std::runtime_error("cannot create " + log_path_);
  const pid_t parent = ::getpid();
  pid_ = ::fork();
  if (pid_ < 0) {
    ::close(log_fd);
    throw std::runtime_error("fork failed");
  }
  if (pid_ == 0) {
    // The child dies with the benchmark, whatever ends it.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(log_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  ::close(log_fd);

  for (int waited = 0; waited < 10000; waited += 2) {
    const std::string text = read_file(port_file);
    if (!text.empty() && text.back() == '\n') {
      port_ = static_cast<std::uint16_t>(std::stoi(text));
      return;
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error("tinyevm_hubd exited during start-up: " +
                               read_file(log_path_));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  throw std::runtime_error("tinyevm_hubd did not report its port");
}

HubdProcess::~HubdProcess() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  int status = 0;
  while (::waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
  }
}

double HubdProcess::cpu_ms() const {
  // The child's process CPU-time clock: every thread's user and system
  // time, in nanoseconds (/proc/<pid>/stat counts 10 ms ticks).
  clockid_t clock{};
  timespec ts{};
  if (::clock_getcpuclockid(pid_, &clock) != 0 || ::clock_gettime(clock, &ts) != 0) {
    return 0;
  }
  return static_cast<double>(ts.tv_sec) * 1e3 + static_cast<double>(ts.tv_nsec) / 1e6;
}

double HubdProcess::peak_rss_mib() const {
  std::istringstream in(
      read_file("/proc/" + std::to_string(pid_) + "/status"));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0;
}

bool HubdProcess::stop(std::string& why) {
  if (pid_ <= 0) {
    why = "hubd is not running";
    return false;
  }
  ::kill(pid_, SIGTERM);
  int status = 0;
  if (!wait_exit(pid_, 10000, status)) {
    why = "hubd did not exit within 10 s of SIGTERM";
    return false;  // the destructor kills it
  }
  pid_ = -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    why = "hubd exit status " + std::to_string(status);
    return false;
  }
  if (read_file(log_path_).find("drained:") == std::string::npos) {
    why = "hubd exited without its drain line";
    return false;
  }
  return true;
}

bool same_response(const channel::HubResponse& got,
                   const channel::HubResponse& want) {
  return got.status == want.status && got.kind == want.kind &&
         got.channel_id == want.channel_id && got.contract == want.contract &&
         got.state == want.state;
}

bool Loader::connect(std::uint16_t port, std::size_t connections) {
  for (std::size_t i = 0; i < connections; ++i) {
    Conn conn;
    conn.fd.reset(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
    if (!conn.fd) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(conn.fd.get(), reinterpret_cast<sockaddr*>(&addr),
                  sizeof addr) != 0) {
      return false;
    }
    const int one = 1;
    ::setsockopt(conn.fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    ::fcntl(conn.fd.get(), F_SETFL,
            ::fcntl(conn.fd.get(), F_GETFL) | O_NONBLOCK);
    conns_.push_back(std::move(conn));
  }
  return true;
}

void Loader::flush(Conn& conn) {
  while (conn.out_pos < conn.out.size()) {
    const ssize_t n = ::send(conn.fd.get(), conn.out.data() + conn.out_pos,
                             conn.out.size() - conn.out_pos, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_pos += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EINTR)) return;
    conn.dead = true;
    return;
  }
  conn.out.clear();
  conn.out_pos = 0;
}

void Loader::send(const std::vector<Arrival>& arrivals, const Pending& p,
                  int phase) {
  const std::size_t index = arrivals[p.arrival].script[p.step];
  const Exchange& ex = table_[index];
  Conn& conn = conns_[ex.conn];
  RequestRecord rec;
  rec.exchange = index;
  rec.phase = phase;
  rec.arrival = p.arrival;
  rec.script_end = p.step + 1 == arrivals[p.arrival].script.size();
  rec.due_ns = p.due_ns;
  rec.send_ns = now_ns();
  const std::uint32_t seq = conn.next_seq++;
  const net::Bytes bytes = net::encode_request(ex.request, seq);
  const std::int64_t encoded = tracer_.enabled() ? now_ns() : rec.send_ns;
  conn.out.insert(conn.out.end(), bytes.begin(), bytes.end());
  flush(conn);
  rec.written_ns = now_ns();
  if (tracer_.enabled()) {
    const auto track = ex.conn + 1;
    tracer_.add("schedule", "bench", rec.due_ns, rec.send_ns, track, ex.conn, seq);
    tracer_.add("encode", "net", rec.send_ns, encoded, track, ex.conn, seq);
    tracer_.add("socket.write", "net", encoded, rec.written_ns, track, ex.conn,
                seq);
  }
  conn.record_of_seq.push_back(records_.size());
  records_.push_back(rec);
  position_.push_back(p);
  ++outstanding_;
}

void Loader::read_ready(std::size_t conn_index, std::vector<Pending>& ready) {
  Conn& conn = conns_[conn_index];
  std::uint8_t buf[65536];
  for (;;) {
    const ssize_t n = ::read(conn.fd.get(), buf, sizeof buf);
    if (n > 0) {
      conn.reader.feed({buf, static_cast<std::size_t>(n)});
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && errno == EAGAIN) break;
    conn.dead = true;  // EOF or error: the hub dropped us
    break;
  }
  if (conn.reader.error() != net::FrameError::None) {
    conn.dead = true;
    ++faults_;
  }
  while (auto frame = conn.reader.next()) {
    const std::int64_t recv = now_ns();
    if (frame->kind != net::FrameKind::Response || frame->seq == 0 ||
        frame->seq > conn.record_of_seq.size()) {
      ++faults_;
      continue;
    }
    const std::size_t r = conn.record_of_seq[frame->seq - 1];
    if (r == kExpired) continue;  // already counted as unanswered
    RequestRecord& rec = records_[r];
    if (rec.recv_ns != 0) {
      ++faults_;
      continue;
    }
    const auto response = net::decode_response(*frame);
    const std::int64_t decoded = tracer_.enabled() ? now_ns() : recv;
    rec.recv_ns = recv;
    --outstanding_;
    if (response) {
      rec.queue_us = response->queue_us;
      rec.service_us = response->service_us;
      rec.ok = same_response(*response, table_[rec.exchange].expected);
      rec.busy = response->status == channel::HubStatus::Busy;
    }
    if (tracer_.enabled()) {
      const auto track = static_cast<std::uint32_t>(conn_index + 1);
      const auto c = static_cast<std::int64_t>(conn_index);
      tracer_.add("wait", "bench", rec.written_ns, recv, track, c, frame->seq);
      // The hub reports durations, not timestamps: centre its queue and
      // service intervals in the wait, splitting the transport time evenly.
      const std::int64_t hub_ns =
          (static_cast<std::int64_t>(rec.queue_us) + rec.service_us) * 1000;
      const std::int64_t hub_start =
          rec.written_ns + std::max<std::int64_t>(0, (recv - rec.written_ns - hub_ns) / 2);
      const std::int64_t service_start =
          hub_start + static_cast<std::int64_t>(rec.queue_us) * 1000;
      tracer_.add("hub.queue", "channel", hub_start, service_start, track, c,
                  frame->seq);
      tracer_.add("hub.service", "channel", service_start,
                  service_start + static_cast<std::int64_t>(rec.service_us) * 1000,
                  track, c, frame->seq);
      tracer_.add("decode", "net", recv, decoded, track, c, frame->seq);
      tracer_.add("check", "bench", decoded, now_ns(), track, c, frame->seq);
    }
    const Pending& at = position_[r];
    const auto& script = (*live_)[at.arrival].script;
    if (at.step + 1 < script.size()) {
      if (rec.ok) {
        ready.push_back({at.arrival, at.step + 1, recv});
      } else {
        abandoned_ += script.size() - at.step - 1;
      }
    }
  }
}

std::size_t Loader::run(const std::vector<Arrival>& arrivals, int phase,
                        double drain_s) {
  const std::size_t first = records_.size();
  live_ = &arrivals;
  // A short lead so the first arrival is not already late.
  const std::int64_t start = now_ns() + 2'000'000;
  const auto due_of = [&](std::size_t i) {
    return start + static_cast<std::int64_t>(arrivals[i].at_s * 1e9);
  };
  const std::int64_t deadline =
      (arrivals.empty() ? start : due_of(arrivals.size() - 1)) +
      static_cast<std::int64_t>(drain_s * 1e9);
  std::size_t next = 0;
  std::vector<Pending> ready;
  std::vector<pollfd> fds(conns_.size());
  for (;;) {
    std::int64_t now = now_ns();
    while (next < arrivals.size() && due_of(next) <= now) {
      send(arrivals, {next, 0, due_of(next)}, phase);
      ++next;
    }
    for (const Pending& p : ready) send(arrivals, p, phase);
    ready.clear();
    if (next >= arrivals.size() && outstanding_ == 0) break;
    now = now_ns();
    if (now >= deadline) break;
    bool any_dead = false;
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      fds[i].fd = conns_[i].fd.get();
      fds[i].events = POLLIN;
      if (conns_[i].out_pos < conns_[i].out.size()) fds[i].events |= POLLOUT;
      fds[i].revents = 0;
      any_dead = any_dead || conns_[i].dead;
    }
    if (any_dead) break;  // a dropped connection strands its requests
    const std::int64_t wake =
        next < arrivals.size() ? std::min(due_of(next), deadline) : deadline;
    const std::int64_t wait = std::max<std::int64_t>(0, wake - now);
    timespec ts{static_cast<time_t>(wait / 1'000'000'000),
                static_cast<long>(wait % 1'000'000'000)};
    const int n = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (n <= 0) continue;
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      if (fds[i].revents & POLLOUT) flush(conns_[i]);
      if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) read_ready(i, ready);
    }
  }
  // Whatever is still outstanding is unanswered; it stays in records_ with
  // recv_ns == 0 and can no longer be matched.
  for (Conn& conn : conns_) {
    for (std::size_t& r : conn.record_of_seq) {
      if (r == kExpired || r < first || records_[r].recv_ns != 0) continue;
      const Pending& at = position_[r];
      abandoned_ += arrivals[at.arrival].script.size() - at.step - 1;
      r = kExpired;
    }
  }
  outstanding_ = 0;
  live_ = nullptr;
  return first;
}

}  // namespace perfbench
