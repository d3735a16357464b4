// `pb_tool load`: the closed-loop generator. One connection keeps a fixed
// number of pre-encoded requests in flight against a running vicinityd,
// parses and checks every reply, samples replies for the BFS checker, and
// snapshots the daemon's CPU time, the host's CPU counters and STATS at
// both edges of the timed window.
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "checker.h"
#include "graph/io.h"
#include "net/client.h"
#include "tool.h"
#include "workload.h"

namespace pb {

namespace {

using vicinity::net::DistanceRecord;
using vicinity::net::FrameHeader;
using vicinity::net::FrameReader;
using vicinity::net::Op;
using vicinity::net::Status;

constexpr std::size_t kSampleStride = 97;
constexpr std::size_t kSampleCap = 4096;
constexpr std::size_t kSamplesChecked = 400;

std::uint64_t self_cpu_us() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  auto us = [](const timeval& tv) {
    return static_cast<std::uint64_t>(tv.tv_sec) * 1'000'000ull +
           static_cast<std::uint64_t>(tv.tv_usec);
  };
  return us(ru.ru_utime) + us(ru.ru_stime);
}

std::string first_line(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::string status_field(const std::string& path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) return line.substr(key.size());
  }
  return "0";
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

/// Raw TCP connection that hands back whole reply frames.
class Conn {
 public:
  explicit Conn(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("socket failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      const int err = errno;
      ::close(fd_);
      throw std::runtime_error(std::string("connect: ") + std::strerror(err));
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    timeval tv{30, 0};  // a stalled daemon fails the run instead of hanging
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    buf_.resize(1u << 20);
  }
  ~Conn() { ::close(fd_); }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  void send_all(const std::uint8_t* p, std::size_t n) {
    while (n > 0) {
      const ssize_t k = ::send(fd_, p, n, MSG_NOSIGNAL);
      ++send_calls;
      if (k < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error(std::string("send: ") + std::strerror(errno));
      }
      p += k;
      n -= static_cast<std::size_t>(k);
    }
  }

  /// Blocks until at least one whole frame arrived; calls
  /// f(header, payload) for every whole frame buffered.
  template <typename F>
  void recv_frames(F&& f) {
    for (;;) {
      if (have_ == buf_.size()) buf_.resize(buf_.size() * 2);
      const ssize_t k = ::recv(fd_, buf_.data() + have_, buf_.size() - have_, 0);
      ++recv_calls;
      if (k == 0) throw std::runtime_error("daemon closed the connection");
      if (k < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error(std::string("recv: ") + std::strerror(errno));
      }
      have_ += static_cast<std::size_t>(k);
      std::size_t pos = 0;
      while (have_ - pos >= vicinity::net::kFrameHeaderBytes) {
        const FrameHeader h = vicinity::net::decode_header(
            {buf_.data() + pos, vicinity::net::kFrameHeaderBytes});
        const std::size_t whole = vicinity::net::kFrameHeaderBytes + h.payload_len;
        if (have_ - pos < whole) break;
        f(h, std::span<const std::uint8_t>(
                 buf_.data() + pos + vicinity::net::kFrameHeaderBytes,
                 h.payload_len));
        pos += whole;
      }
      if (pos == 0) continue;
      std::memmove(buf_.data(), buf_.data() + pos, have_ - pos);
      have_ -= pos;
      return;
    }
  }

  std::uint64_t send_calls = 0;
  std::uint64_t recv_calls = 0;

 private:
  int fd_ = -1;
  std::vector<std::uint8_t> buf_;
  std::size_t have_ = 0;
};

struct Snapshot {
  std::uint64_t t_ns = 0;
  std::string daemon_stat;
  std::string host_cpu;
  std::uint64_t client_cpu_us = 0;
  std::uint64_t send_calls = 0;
  std::uint64_t recv_calls = 0;
  vicinity::net::StatsReply stats;
};

std::string stats_json(const vicinity::net::StatsReply& s) {
  std::ostringstream o;
  o << "{\"epoch\": " << s.epoch << ", \"queries\": " << s.queries_total
    << ", \"requests\": " << s.requests_total
    << ", \"batches\": " << s.batches_total << ", \"shed\": " << s.shed_total
    << ", \"errors\": " << s.errors_total
    << ", \"timeouts\": " << s.timeouts_total
    << ", \"updates\": " << s.updates_total
    << ", \"cache_hits\": " << s.cache_hits
    << ", \"cache_misses\": " << s.cache_misses
    << ", \"cache_evictions\": " << s.cache_evictions
    << ", \"p50_us\": " << s.p50_us << ", \"p99_us\": " << s.p99_us << "}";
  return o.str();
}

std::string snapshot_json(const Snapshot& s) {
  std::ostringstream o;
  o << "{\"t_ns\": " << s.t_ns << ", \"daemon_stat\": " << json_str(s.daemon_stat)
    << ", \"host_cpu\": " << json_str(s.host_cpu)
    << ", \"client_cpu_us\": " << s.client_cpu_us
    << ", \"send_calls\": " << s.send_calls
    << ", \"recv_calls\": " << s.recv_calls
    << ", \"stats\": " << stats_json(s.stats) << "}";
  return o.str();
}

double percentile_us(std::vector<std::uint64_t>& v, double q) {
  if (v.empty()) return 0.0;
  const auto k = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return static_cast<double>(v[k]) / 1e3;
}

/// The closed loop over one pre-encoded stream.
class Loop {
 public:
  Loop(Conn& conn, const Stream& stream, unsigned inflight,
       std::uint64_t epoch_base, std::string daemon_stat_path)
      : conn_(conn),
        stream_(stream),
        inflight_(inflight),
        epoch_base_(epoch_base),
        send_ns_(stream.size(), 0),
        min_epoch_(stream.size(), 0),
        outstanding_(stream.size(), 0),
        daemon_stat_path_(std::move(daemon_stat_path)) {}

  /// Records a segment edge: requests completed so far and the daemon's
  /// /proc/PID/stat line.
  void mark() { marks.emplace_back(completed, first_line(daemon_stat_path_)); }

  /// Keeps the pipeline full until `deadline`. With `record`, replies
  /// count toward the window and, once enable_spans() was called, each
  /// request, send and recv is logged as a span. With `whole_cycles` on a
  /// stream with updates, it goes on past the deadline until an update
  /// completes a cycle of kUpdateCycle, so that a window holds whole
  /// cycles and not a share of one costly update that depends on timing.
  void run(std::uint64_t deadline, bool record, bool whole_cycles) {
    record_ = record;
    deadline_ = deadline;
    cycle_done_ = false;
    const bool align = whole_cycles && !stream_.updates.empty();
    refill();
    while (align ? !cycle_done_ : now_ns() < deadline) receive_and_refill(true);
  }

  /// Stops sending and waits for every outstanding reply; then, if an
  /// inserted edge is still in place, sends its removal so the daemon's
  /// graph is back at its base state.
  void drain() {
    record_ = false;
    while (in_flight_ > 0) receive_and_refill(false);
    while (sent_updates_ % 2 != 0) {
      while (stream_.requests[pos()].op != Op::kApplyUpdate) ++next_;
      send_range(1);
      while (in_flight_ > 0) receive_and_refill(false);
    }
  }

  void enable_spans(std::size_t cap) { span_cap_ = cap; }
  void write_spans(const std::string& path) const {
    std::ofstream out(path);
    out << "id parent name start_ns end_ns attr\n";
    for (const std::string& line : spans_) out << line << '\n';
  }

  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t inexact = 0;
  std::uint64_t bad_epoch = 0;
  std::uint64_t busy = 0, timeouts = 0, errors = 0;
  std::vector<std::uint64_t> latency_ns;
  std::vector<std::uint64_t> update_rtt_ns;
  std::vector<Sample> samples;
  std::vector<vicinity::core::GraphUpdate> sent_update_seq;
  std::vector<std::string> first_errors;
  std::vector<std::pair<std::uint64_t, std::string>> marks;

 private:
  std::size_t pos() const { return next_ % stream_.size(); }

  void note_error(const std::string& e) {
    if (first_errors.size() < 5) first_errors.push_back(e);
  }

  void add_span(const char* name, std::uint64_t start, std::uint64_t end,
                long attr) {
    if (spans_.size() >= span_cap_) return;
    spans_.push_back(std::to_string(spans_.size() + 1) + " 0 " + name + " " +
                     std::to_string(start) + " " + std::to_string(end) + " " +
                     std::to_string(attr));
  }

  /// Sends the next k requests of the stream (wrapping at its end).
  void send_range(std::size_t k) {
    while (k > 0) {
      const std::size_t first = pos();
      const std::size_t n = std::min(k, stream_.size() - first);
      const std::uint64_t t0 = now_ns();
      for (std::size_t i = first; i < first + n; ++i) {
        if (outstanding_[i] != 0) {
          throw std::runtime_error("request id reused while in flight");
        }
        outstanding_[i] = 1;
        send_ns_[i] = t0;
        min_epoch_[i] = acked_updates_;
        if (stream_.requests[i].op == Op::kApplyUpdate) {
          ++sent_updates_;
          sent_update_seq.push_back(stream_.updates[stream_.requests[i].update]);
        }
      }
      conn_.send_all(stream_.frames.data() + stream_.offsets[first],
                     stream_.offsets[first + n] - stream_.offsets[first]);
      if (record_) add_span("send", t0, now_ns(), static_cast<long>(n));
      next_ += n;
      in_flight_ += n;
      k -= n;
    }
  }

  void refill() {
    if (in_flight_ < inflight_) send_range(inflight_ - in_flight_);
  }

  void receive_and_refill(bool refill_after) {
    const std::uint64_t t0 = now_ns();
    std::uint64_t t = 0;
    std::size_t frames = 0;
    conn_.recv_frames([&](const FrameHeader& h, std::span<const std::uint8_t> p) {
      if (t == 0) t = now_ns();
      ++frames;
      on_reply(h, p, t);
    });
    if (record_) add_span("recv", t0, t, static_cast<long>(frames));
    if (refill_after) refill();
  }

  void on_reply(const FrameHeader& h, std::span<const std::uint8_t> payload,
                std::uint64_t t) {
    const std::uint64_t id = h.request_id;
    if (id >= stream_.size() || outstanding_[id] == 0) {
      throw std::runtime_error("reply with unknown request id " +
                               std::to_string(id));
    }
    outstanding_[id] = 0;
    --in_flight_;
    const Request& r = stream_.requests[id];
    const bool counted = record_;
    if (counted) {
      ++completed;
      latency_ns.push_back(t - send_ns_[id]);
      add_span("request", send_ns_[id], t, static_cast<long>(r.op));
    }
    bool ok = true;
    if (h.status != Status::kOk) {
      ok = false;
      if (h.status == Status::kBusy) ++busy;
      else if (h.status == Status::kTimeout) ++timeouts;
      else ++errors;
      note_error(std::string("status ") + vicinity::net::to_string(h.status) +
                 " for " + vicinity::net::to_string(r.op));
    } else {
      try {
        ok = parse(r, id, payload, t);
      } catch (const std::exception& e) {
        ok = false;
        note_error(e.what());
      }
    }
    if (!ok && counted) ++failed;
  }

  bool parse(const Request& r, std::uint64_t id,
             std::span<const std::uint8_t> payload, std::uint64_t t) {
    FrameReader rd(payload);
    if (r.op == Op::kApplyUpdate) {
      const auto u = vicinity::net::read_update_reply(rd);
      ++acked_updates_;
      if (acked_updates_ % kUpdateCycle == 0 && record_) mark();
      if (acked_updates_ % kUpdateCycle == 0 && t >= deadline_) {
        cycle_done_ = true;
      }
      if (record_) update_rtt_ns.push_back(t - send_ns_[id]);
      return u.epoch == epoch_base_ + acked_updates_;
    }
    Sample s;
    s.op = r.op;
    s.s = r.s;
    s.t = r.t;
    const std::uint64_t epoch = rd.u64();
    std::size_t n = 1;
    if (r.op == Op::kDistances) {
      n = rd.u32();
      s.targets.assign(stream_.fan.begin() + r.fan,
                       stream_.fan.begin() + r.fan + kFanTargets);
    }
    for (std::size_t i = 0; i < n; ++i) {
      s.records.push_back(vicinity::net::read_distance_record(rd));
    }
    if (r.op == Op::kPath) {
      const std::uint32_t len = rd.u32();
      for (std::uint32_t i = 0; i < len; ++i) s.path.push_back(rd.u32());
    }
    rd.expect_end();
    bool ok = true;
    for (const DistanceRecord& rec : s.records) {
      if (!rec.exact || rec.dist == vicinity::kInfDistance) {
        ++inexact;
        ok = false;
      }
    }
    s.min_epoch = min_epoch_[id];
    s.max_epoch = sent_updates_;
    if (epoch < epoch_base_ || epoch - epoch_base_ < s.min_epoch ||
        epoch - epoch_base_ > s.max_epoch) {
      ++bad_epoch;
      note_error("reply epoch " + std::to_string(epoch) + " outside [" +
                 std::to_string(epoch_base_ + s.min_epoch) + ", " +
                 std::to_string(epoch_base_ + s.max_epoch) + "]");
      return false;
    }
    s.epoch = epoch - epoch_base_;
    if (record_ && ++replies_seen_ % kSampleStride == 0 &&
        samples.size() < kSampleCap) {
      samples.push_back(std::move(s));
    }
    return ok;
  }

  Conn& conn_;
  const Stream& stream_;
  const unsigned inflight_;
  const std::uint64_t epoch_base_;
  std::vector<std::uint64_t> send_ns_;
  std::vector<std::uint64_t> min_epoch_;
  std::vector<std::uint8_t> outstanding_;
  const std::string daemon_stat_path_;
  std::uint64_t next_ = 0;
  std::size_t in_flight_ = 0;
  std::uint64_t acked_updates_ = 0;
  std::uint64_t sent_updates_ = 0;
  std::uint64_t replies_seen_ = 0;
  bool record_ = false;
  std::uint64_t deadline_ = 0;
  bool cycle_done_ = false;
  std::size_t span_cap_ = 0;
  std::vector<std::string> spans_;
};

/// Sends every hot pair once (the untimed cache warm) with `inflight` in
/// flight; returns the number of non-OK replies.
std::uint64_t warm(Conn& conn, const Stream& stream, unsigned inflight) {
  const std::uint64_t first_id = std::uint64_t{1} << 40;
  const std::vector<std::uint8_t> frames = encode_warm_frames(stream, first_id);
  const std::size_t total = stream.hot.size();
  if (total == 0) return 0;
  const std::size_t frame = frames.size() / total;
  std::size_t sent = 0, done = 0;
  std::uint64_t bad = 0;
  while (done < total) {
    const std::size_t k = std::min(total - sent, inflight - (sent - done));
    if (k > 0) {
      conn.send_all(frames.data() + sent * frame, k * frame);
      sent += k;
    }
    conn.recv_frames([&](const FrameHeader& h, std::span<const std::uint8_t>) {
      ++done;
      if (h.status != Status::kOk) ++bad;
    });
  }
  return bad;
}

}  // namespace

int run_load(const Args& args) {
  const std::string dir = args.get("dir");
  const auto port = static_cast<std::uint16_t>(args.get_u64("port"));
  const WorkloadSpec& spec = workload_spec(args.get("workload"));
  const std::uint64_t seed = args.get_u64("seed");
  const double seconds = args.get_double("seconds");
  const std::string pid = args.get("daemon-pid");
  const std::string spans_path = args.get("spans", "");

  const vicinity::graph::Graph g =
      vicinity::graph::load_binary_file(dir + "/graph.bin");
  const Stream stream = make_stream(spec.kind, g, seed);

  vicinity::net::Client control;
  control.connect("127.0.0.1", port);
  if (!stream.updates.empty()) {
    // The first update of an mmap-opened index copies it to the heap; pay
    // that once, untimed, with an insert and removal of the first edge.
    const auto& u = stream.updates[0];
    control.insert_edge(u.u, u.v, u.weight);
    control.remove_edge(u.u, u.v);
  }
  const std::uint64_t epoch_base = control.stats().epoch;

  Conn conn(port);
  const std::uint64_t warm_failed = warm(conn, stream, spec.inflight);

  Loop loop(conn, stream, spec.inflight, epoch_base, "/proc/" + pid + "/stat");
  auto snapshot = [&]() {
    Snapshot s;
    s.stats = control.stats();
    s.daemon_stat = first_line("/proc/" + pid + "/stat");
    s.host_cpu = first_line("/proc/stat");
    s.client_cpu_us = self_cpu_us();
    s.send_calls = conn.send_calls;
    s.recv_calls = conn.recv_calls;
    s.t_ns = now_ns();
    return s;
  };

  if (!spans_path.empty()) loop.enable_spans(args.get_u64("span-cap"));
  loop.run(now_ns() + 500'000'000ull, false, true);  // ramp: fill the pipeline
  // run.py reports the median of the window's segments' CPU per request.
  // With updates, a segment is one whole update cycle (every one holds the
  // same updates); without, one second. A burst of host contention then
  // moves few segments.
  const Snapshot before = snapshot();
  loop.mark();
  if (stream.updates.empty()) {
    const auto slices = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(seconds + 0.5));
    const auto slice_ns = static_cast<std::uint64_t>(seconds * 1e9) / slices;
    for (std::uint64_t k = 1; k <= slices; ++k) {
      loop.run(before.t_ns + k * slice_ns, true, false);
      loop.mark();
    }
  } else {
    loop.run(before.t_ns + static_cast<std::uint64_t>(seconds * 1e9), true,
             true);
  }
  const Snapshot after = snapshot();
  loop.drain();
  const std::string vmhwm = status_field("/proc/" + pid + "/status", "VmHWM:");
  if (!spans_path.empty()) loop.write_spans(spans_path);

  // Check an evenly spaced subset of the sampled replies.
  std::vector<Sample> chosen;
  const std::size_t step =
      std::max<std::size_t>(1, loop.samples.size() / kSamplesChecked);
  for (std::size_t i = 0; i < loop.samples.size(); i += step) {
    chosen.push_back(loop.samples[i]);
  }
  const CheckSummary check =
      check_samples(ReferenceGraph(g), loop.sent_update_seq, std::move(chosen));

  std::vector<std::uint64_t> lat = loop.latency_ns;
  std::vector<std::uint64_t> urtt = loop.update_rtt_ns;
  std::ostringstream o;
  o << "{\"workload\": " << json_str(spec.name)
    << ", \"inflight\": " << spec.inflight
    << ", \"completed\": " << loop.completed
    << ", \"failed\": " << loop.failed + check.failed
    << ", \"inexact\": " << loop.inexact << ", \"bad_epoch\": " << loop.bad_epoch
    << ", \"busy\": " << loop.busy << ", \"timeouts\": " << loop.timeouts
    << ", \"errors\": " << loop.errors << ", \"warm_pairs\": " << stream.hot.size()
    << ", \"warm_failed\": " << warm_failed
    << ", \"updates_sent\": " << loop.sent_update_seq.size()
    << ", \"lat_us\": {\"n\": " << lat.size()
    << ", \"p50\": " << percentile_us(lat, 0.50)
    << ", \"p99\": " << percentile_us(lat, 0.99)
    << ", \"p999\": " << percentile_us(lat, 0.999)
    << ", \"max\": " << percentile_us(lat, 1.0) << "}"
    << ", \"update_rtt_us\": {\"n\": " << urtt.size()
    << ", \"p50\": " << percentile_us(urtt, 0.50) << "}"
    << ", \"vmhwm_kb\": " << std::stoull(vmhwm)
    << ", \"check\": {\"sampled\": " << loop.samples.size()
    << ", \"checked\": " << check.checked << ", \"failed\": " << check.failed
    << ", \"errors\": [";
  std::vector<std::string> errs = loop.first_errors;
  errs.insert(errs.end(), check.errors.begin(), check.errors.end());
  for (std::size_t i = 0; i < errs.size(); ++i) {
    o << (i ? ", " : "") << json_str(errs[i]);
  }
  o << "]}, \"before\": " << snapshot_json(before)
    << ", \"after\": " << snapshot_json(after) << ", \"marks\": [";
  for (std::size_t k = 0; k < loop.marks.size(); ++k) {
    o << (k > 0 ? ", " : "") << "{\"completed\": " << loop.marks[k].first
      << ", \"daemon_stat\": " << json_str(loop.marks[k].second) << "}";
  }
  o << "]}";
  std::printf("%s\n", o.str().c_str());
  return 0;
}

}  // namespace pb
