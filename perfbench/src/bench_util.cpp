#include "bench_util.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

extern char** environ;

namespace perfbench {

namespace serve = ingrass::serve;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

// --- Tracer -----------------------------------------------------------------

int Tracer::begin(const std::string& name, std::uint64_t request, int parent) {
  if (!enabled_) return -1;
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, now_ns(), 0, parent, request});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::end(int id) {
  if (id < 0) return;
  const std::int64_t t = now_ns();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = t;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
  }
  return out;
}

std::vector<std::int64_t> Tracer::self_ns_locked() const {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<std::int64_t> out(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Union of the child intervals, clipped to the parent.
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t reach = s.start_ns;
    for (auto [a, b] : kids) {
      a = std::max(a, reach);
      b = std::min(b, s.end_ns);
      if (b > a) {
        covered += b - a;
        reach = b;
      }
    }
    out[i] = s.end_ns - s.start_ns - covered;
  }
  return out;
}

double Tracer::paired_self(const std::string& outer, const std::string& inner) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const std::vector<std::int64_t> self = self_ns_locked();
  std::map<std::uint64_t, std::int64_t> in;
  for (const Span& s : spans_) {
    if (s.name == inner) in[s.request] = s.end_ns - s.start_ns;
  }
  std::vector<double> diffs;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name != outer) continue;
    const auto it = in.find(spans_[i].request);
    if (it != in.end()) diffs.push_back(static_cast<double>(self[i] - it->second) * 1e-9);
  }
  if (diffs.empty()) {
    throw std::runtime_error("no request replayed at both " + outer + " and " + inner);
  }
  return median(diffs);
}

void Tracer::write_jsonl(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path, std::ios::trunc);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}\n";
  }
}

// --- Report -----------------------------------------------------------------

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) throw std::runtime_error("non-finite value in report");
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void Report::samples(const std::string& name, std::vector<double> values,
                     std::uint64_t failures) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (samples_.count(name) != 0) return;
  samples_[name] = std::move(values);
  sample_failures_[name] = failures;
}

void Report::value(const std::string& name, double v) {
  const std::lock_guard<std::mutex> lock(mu_);
  values_.emplace(name, v);
}

void Report::ops(std::uint64_t attempted, std::uint64_t failed) {
  const std::lock_guard<std::mutex> lock(mu_);
  attempted_ += attempted;
  failed_ += failed;
}

void Report::check(bool ok, const std::string& what) {
  const std::lock_guard<std::mutex> lock(mu_);
  ++checks_;
  if (!ok) {
    ++failed_;
    if (check_failures_.size() < 50) check_failures_.push_back(what);
  }
}

void Report::note(const std::string& text) {
  const std::lock_guard<std::mutex> lock(mu_);
  notes_.push_back(text);
}

std::string Report::to_json() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream o;
  o << "{\"attempted\":" << attempted_ << ",\"failed\":" << failed_
    << ",\"checks\":" << checks_ << ",\"check_failures\":[";
  for (std::size_t i = 0; i < check_failures_.size(); ++i) {
    o << (i ? "," : "") << '"' << json_escape(check_failures_[i]) << '"';
  }
  o << "],\"notes\":[";
  for (std::size_t i = 0; i < notes_.size(); ++i) {
    o << (i ? "," : "") << '"' << json_escape(notes_[i]) << '"';
  }
  o << "],\"values\":{";
  bool first = true;
  for (const auto& [k, v] : values_) {
    o << (first ? "" : ",") << '"' << k << "\":" << json_number(v);
    first = false;
  }
  o << "},\"samples\":{";
  first = true;
  for (const auto& [k, vs] : samples_) {
    o << (first ? "" : ",") << '"' << k << "\":{\"failures\":" << sample_failures_.at(k)
      << ",\"values\":[";
    for (std::size_t i = 0; i < vs.size(); ++i) o << (i ? "," : "") << json_number(vs[i]);
    o << "]}";
    first = false;
  }
  o << "}}";
  return o.str();
}

double median(std::vector<double> v) {
  if (v.empty()) throw std::runtime_error("median of no samples");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- ServerProcess ------------------------------------------------------------

namespace {

/// Reap `pid` within `timeout_s`; returns false if it is still running.
bool reap(pid_t pid, double timeout_s, rusage* ru) {
  const auto t0 = Clock::now();
  for (;;) {
    int status = 0;
    const pid_t r = ::wait4(pid, &status, WNOHANG, ru);
    if (r == pid) return true;
    if (r < 0 && errno != EINTR) return true;  // already reaped elsewhere
    if (seconds_since(t0) > timeout_s) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

}  // namespace

ServerProcess::ServerProcess(const std::string& binary,
                             const std::vector<std::string>& extra_args,
                             const std::string& work_dir, const std::string& tag) {
  const std::string port_file = work_dir + "/" + tag + ".port";
  const std::string log_file = work_dir + "/" + tag + ".log";
  std::remove(port_file.c_str());
  std::vector<std::string> args = {binary, "--listen", "0", "--port-file", port_file};
  args.insert(args.end(), extra_args.begin(), extra_args.end());
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_addopen(&fa, 0, "/dev/null", O_RDONLY, 0);
  posix_spawn_file_actions_addopen(&fa, 1, log_file.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_adddup2(&fa, 1, 2);
  const int rc = ::posix_spawn(&pid_, binary.c_str(), &fa, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  if (rc != 0) {
    pid_ = -1;
    throw std::runtime_error("cannot start " + binary + ": " + std::strerror(rc));
  }
  const auto t0 = Clock::now();
  for (;;) {
    std::ifstream in(port_file);
    long p = 0;
    if (in && (in >> p) && p > 0 && p <= 65535) {
      port_ = static_cast<std::uint16_t>(p);
      return;
    }
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      throw std::runtime_error(tag + " exited before listening (see " + log_file + ")");
    }
    if (seconds_since(t0) > 30.0) {
      throw std::runtime_error(tag + " did not publish a port within 30 s");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

ServerProcess::~ServerProcess() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGKILL);
  rusage ru{};
  reap(pid_, 10.0, &ru);
}

double ServerProcess::stop() {
  if (pid_ <= 0) throw std::runtime_error("server already stopped");
  try {
    WireClient c(port_);
    (void)c.call(serve::req::Quit{});
  } catch (const std::exception&) {
    // The server may close the connection before the Bye lands; reaping
    // below is what decides whether it stopped.
  }
  rusage ru{};
  if (!reap(pid_, 30.0, &ru)) {
    ::kill(pid_, SIGKILL);
    reap(pid_, 10.0, &ru);
    pid_ = -1;
    throw std::runtime_error("server did not exit after quit");
  }
  pid_ = -1;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// --- WireClient ---------------------------------------------------------------

WireClient::WireClient(std::uint16_t port) : buf_(1 << 16) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  const auto t0 = Clock::now();
  for (;;) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error(std::string("socket: ") + std::strerror(errno));
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0) break;
    ::close(fd_);
    fd_ = -1;
    if (seconds_since(t0) > 10.0) {
      throw std::runtime_error("cannot connect to 127.0.0.1:" + std::to_string(port));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
}

WireClient::~WireClient() {
  if (fd_ >= 0) ::close(fd_);
}

void WireClient::send(const std::vector<serve::Request>& requests, Tracer* tr,
                      std::uint64_t request_id, int parent) {
  std::ostringstream out;
  for (const serve::Request& r : requests) {
    const int id = tr ? tr->begin("client.encode", request_id, parent) : -1;
    codec_.write_request(out, r);
    if (tr) tr->end(id);
  }
  const std::string bytes = out.str();
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::send(fd_, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("send: ") + std::strerror(errno));
    }
    off += static_cast<std::size_t>(n);
  }
}

void WireClient::read_exact(char* dst, std::size_t n) {
  while (n > 0) {
    if (pos_ == len_) {
      const ssize_t r = ::recv(fd_, buf_.data(), buf_.size(), 0);
      if (r < 0 && errno == EINTR) continue;
      if (r <= 0) throw std::runtime_error("server closed the connection");
      pos_ = 0;
      len_ = static_cast<std::size_t>(r);
    }
    const std::size_t k = std::min(n, len_ - pos_);
    std::memcpy(dst, buf_.data() + pos_, k);
    pos_ += k;
    dst += k;
    n -= k;
  }
}

serve::Response WireClient::recv(Tracer* tr, std::uint64_t request_id, int parent) {
  // Frame header: 4-byte magic, u32 version, u32 payload length (LE).
  std::string frame(12, '\0');
  read_exact(frame.data(), 12);
  std::uint32_t len = 0;
  for (int i = 3; i >= 0; --i) {
    len = (len << 8) | static_cast<unsigned char>(frame[8 + static_cast<std::size_t>(i)]);
  }
  if (len > serve::kMaxFrameBytes) throw std::runtime_error("oversized response frame");
  frame.resize(12 + len);
  read_exact(frame.data() + 12, len);
  const int id = tr ? tr->begin("client.decode", request_id, parent) : -1;
  std::istringstream in(frame);
  auto resp = codec_.read_response(in);
  if (tr) tr->end(id);
  if (!resp) throw std::runtime_error("empty response frame");
  return std::move(*resp);
}

serve::Response WireClient::call(const serve::Request& r) {
  send({r});
  return recv();
}

void run_threads(int n, const std::function<void(int)>& fn) {
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(n));
  std::vector<std::thread> threads;
  for (int i = 0; i < n; ++i) {
    threads.emplace_back([&, i] {
      try {
        fn(i);
      } catch (...) {
        errors[static_cast<std::size_t>(i)] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (const auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
}

double self_peak_rss_mib() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string describe(const serve::Response& r) {
  if (const auto* e = std::get_if<serve::resp::Error>(&r)) return "err " + e->message;
  if (const auto* b = std::get_if<serve::resp::Busy>(&r)) return "busy " + b->what;
  if (const auto* s = std::get_if<serve::resp::ShardError>(&r)) return "shard-err " + s->what;
  return "response type #" + std::to_string(r.index());
}

}  // namespace perfbench
