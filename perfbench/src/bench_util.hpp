#pragma once

// Shared plumbing for the perfbench harness: clocks, the in-memory span
// recorder, the result report, server child processes and a minimal
// binary-protocol client over a loopback socket.

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "serve/protocol.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point t0);
[[nodiscard]] std::int64_t now_ns();

/// One recorded span: a timed call into a layer's public function.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;             ///< index of the enclosing span, -1 at the root
  std::uint64_t request = 0;   ///< request id shared by the spans of one request
};

/// In-memory span recorder. Spans are appended under a mutex, so load
/// threads may share one tracer; parents are passed explicitly. A disabled
/// tracer records nothing and begin() returns -1.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  int begin(const std::string& name, std::uint64_t request, int parent = -1);
  void end(int id);

  /// Durations (seconds) of every span named `name`.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;
  /// Self time of the layer between two adjacent entry points, in seconds:
  /// the median, over requests replayed at both and paired by request id,
  /// of the outer span's self time (its duration minus the part its child
  /// spans cover, e.g. client-side encode/decode) minus the inner span's
  /// duration.
  [[nodiscard]] double paired_self(const std::string& outer, const std::string& inner) const;
  /// Write every span as one JSON object per line.
  void write_jsonl(const std::string& path) const;

 private:
  /// Self time of every span, ns. Caller holds mu_.
  [[nodiscard]] std::vector<std::int64_t> self_ns_locked() const;

  bool enabled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op on a disabled tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, const std::string& name, std::uint64_t request, int parent = -1)
      : t_(t), id_(t.begin(name, request, parent)) {}
  ~ScopedSpan() { t_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] int id() const { return id_; }

 private:
  Tracer& t_;
  int id_;
};

/// What one run measured. Phases run main-first, so every setter keeps the
/// first value written under a name: a companion phase only fills the
/// metrics the main phase left empty.
class Report {
 public:
  /// Raw samples; `failures` operations that failed count as missing every
  /// percentile of this list.
  void samples(const std::string& name, std::vector<double> values, std::uint64_t failures = 0);
  void value(const std::string& name, double v);
  void ops(std::uint64_t attempted, std::uint64_t failed);
  /// Record a check; a failed check counts as one failed operation.
  void check(bool ok, const std::string& what);
  void note(const std::string& text);
  [[nodiscard]] std::string to_json() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::vector<double>> samples_;
  std::map<std::string, std::uint64_t> sample_failures_;
  std::map<std::string, double> values_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t checks_ = 0;
  std::vector<std::string> check_failures_;
  std::vector<std::string> notes_;
};

[[nodiscard]] double median(std::vector<double> v);

/// An `ingrass_serve --listen 0` child. The constructor waits for its port
/// file; stop() sends `quit`, reaps the child and returns its peak RSS. The
/// destructor kills and reaps a child that was never stopped.
class ServerProcess {
 public:
  ServerProcess(const std::string& binary, const std::vector<std::string>& extra_args,
                const std::string& work_dir, const std::string& tag);
  ~ServerProcess();
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  [[nodiscard]] std::uint16_t port() const { return port_; }
  /// Quit and reap; returns the child's peak resident set in MiB.
  double stop();

 private:
  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
};

/// Blocking binary-codec client on one loopback connection. Frames are
/// read whole before decoding, so decode time excludes waiting.
class WireClient {
 public:
  explicit WireClient(std::uint16_t port);
  ~WireClient();
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  /// Encode `requests` and write them with one send.
  void send(const std::vector<ingrass::serve::Request>& requests, Tracer* tr = nullptr,
            std::uint64_t request_id = 0, int parent = -1);
  ingrass::serve::Response recv(Tracer* tr = nullptr, std::uint64_t request_id = 0,
                                int parent = -1);
  ingrass::serve::Response call(const ingrass::serve::Request& r);

 private:
  void read_exact(char* dst, std::size_t n);

  int fd_ = -1;
  ingrass::serve::BinaryCodec codec_;
  std::vector<char> buf_;
  std::size_t pos_ = 0;
  std::size_t len_ = 0;
};

/// Run fn(0) .. fn(n-1) on n threads and join them all; then rethrow the
/// first exception any of them threw.
void run_threads(int n, const std::function<void(int)>& fn);

/// Peak resident set of this process so far, MiB.
[[nodiscard]] double self_peak_rss_mib();

/// Short description of a response's type for error messages.
[[nodiscard]] std::string describe(const ingrass::serve::Response& r);

}  // namespace perfbench
