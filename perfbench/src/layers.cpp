#include "layers.hpp"

#include <condition_variable>
#include <filesystem>
#include <map>
#include <mutex>
#include <semaphore>
#include <sstream>

#include "mcsn/netlist/compile.hpp"
#include "mcsn/nets/compose/builder.hpp"
#include "mcsn/serve/batcher.hpp"
#include "mcsn/serve/sorter_pool.hpp"
#include "mcsn/serve/wire.hpp"
#include "mcsn/sorter.hpp"

namespace perfbench {

namespace {

using mcsn::SortRequest;
using mcsn::SortResponse;
using mcsn::SortShape;
using mcsn::StatusOr;
using mcsn::Trit;
using mcsn::wire::FrameType;

constexpr std::size_t kLanes = 256;
/// The in-process SortService replay runs this long at most.
constexpr double kServiceReplayS = 2.0;
/// The layer replay covers at least this many rounds.
constexpr std::size_t kReplayRounds = 4096;
/// Open loop: arrivals replayed through the layers.
constexpr std::size_t kReplayArrivals = 12288;
/// Spans written to the trace file (the per-name totals cover them all).
constexpr std::size_t kTraceSpansWritten = 100000;

StatusOr<SortRequest> decode_request_frame(std::span<const std::uint8_t> bytes) {
  StatusOr<mcsn::wire::FrameView> view = mcsn::wire::parse_frame(bytes);
  if (!view.ok()) return view.status();
  return view->type == FrameType::batch_request
             ? mcsn::wire::decode_batch_request(view->body)
             : mcsn::wire::decode_request(view->body);
}

StatusOr<SortResponse> decode_response_frame(std::span<const std::uint8_t> bytes) {
  StatusOr<mcsn::wire::FrameView> view = mcsn::wire::parse_frame(bytes);
  if (!view.ok()) return view.status();
  return view->type == FrameType::batch_response
             ? mcsn::wire::decode_batch_response(view->body)
             : mcsn::wire::decode_response(view->body);
}

using ShapeKey = std::pair<int, std::size_t>;
ShapeKey key_of(SortShape s) { return {s.channels, s.bits}; }

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_error;
  void fail(const std::string& what) {
    ++failed;
    if (first_error.empty()) first_error = what;
  }
};

/// SortService::submit(request, callback) on the workload's own arrival
/// pattern (Poisson schedule, or a window of frames in flight); returns
/// each request's submit-to-callback time in us.
std::vector<double> replay_service(mcsn::SortService& service, const Workload& w,
                                   const std::vector<SortRequest>& requests,
                                   double seconds, Tally& tally) {
  const std::size_t cap =
      w.open_loop ? w.due_ns.size() : std::size_t{1} << 16;
  std::vector<std::int64_t> submitted_at(cap, 0);
  std::vector<std::int64_t> done_at(cap, 0);
  std::vector<char> ok(cap, 0);
  // A callback's last touch of these locals is the counter update under
  // `mu`, notified while the lock is held: once the wait below has seen
  // every completion, no callback can still reach them.
  std::mutex mu;
  std::condition_variable all_done;
  std::uint64_t completed = 0;
  std::counting_semaphore<64> slots(static_cast<std::ptrdiff_t>(
      w.open_loop ? 0 : w.window));
  const auto start = Clock::now() + std::chrono::milliseconds(1);
  const std::int64_t horizon_ns = static_cast<std::int64_t>(seconds * 1e9);
  std::uint64_t n = 0;
  for (; n < cap; ++n) {
    if (w.open_loop) {
      if (w.due_ns[n] >= horizon_ns) break;
      const auto due = start + std::chrono::nanoseconds(w.due_ns[n]);
      while (Clock::now() < due) {
      }
    } else {
      if (Clock::now() - start >= std::chrono::nanoseconds(horizon_ns)) break;
      slots.acquire();
    }
    const std::size_t index = w.frame_of(n);
    const Frame& f = w.frames[index];
    submitted_at[n] = to_ns(Clock::now() - start);
    service.submit(SortRequest(requests[index]),
                   [&, n, expect = &f.expect](SortResponse rsp) {
                     ok[n] = rsp.status.ok() && rsp.payload == *expect;
                     done_at[n] = to_ns(Clock::now() - start);
                     if (!w.open_loop) slots.release();
                     const std::lock_guard lock(mu);
                     ++completed;
                     all_done.notify_one();
                   });
  }
  {
    std::unique_lock lock(mu);
    all_done.wait(lock, [&] { return completed == n; });
  }
  std::vector<double> us;
  us.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    ++tally.attempted;
    if (!ok[i]) tally.fail("service replay: wrong or failed response");
    us.push_back(static_cast<double>(done_at[i] - submitted_at[i]) / 1e3);
  }
  return us;
}

/// Per-shape state of the layer replay.
struct ShapeState {
  std::shared_ptr<const mcsn::McSorter> sorter;
  std::vector<std::size_t> pending_frames;  // frame index per staged request
  std::size_t sorted_rounds = 0;            // rounds in full lane groups
  /// Full groups kept for the eval replay: sort_batch_flat's input and output.
  std::vector<std::pair<std::vector<Trit>, std::vector<Trit>>> sample_groups;
  std::size_t replayed_rounds = 0;
};

struct LayerReplay {
  SpanLog log;
  Tally tally;
  std::size_t rounds = 0;
  std::size_t full_group_rounds = 0;
  double eval_ns_weighted = 0.0;  // sum over shapes of eval ns/round x rounds
  double live_gates_weighted = 0.0;
  double levels_weighted = 0.0;

  explicit LayerReplay(Clock::time_point epoch) : log(epoch, 1 << 18) {}
};

/// Sorts one flushed group and round-trips every response through the wire
/// codec, checking each against the reference. `traced` is false for the
/// partial tail groups, which stay out of the engine timings.
void execute_group(LayerReplay& r, ShapeState& st, const Workload& w,
                   mcsn::BatchGroup group, std::uint32_t parent,
                   std::uint64_t seq, bool traced) {
  std::vector<Trit> out(group.flat.size());
  const std::uint32_t sort_span =
      traced ? r.log.begin(kEngineSort, seq, parent) : 0;
  const mcsn::Status s = group.sorter->sort_batch_flat(group.flat, out);
  if (traced) r.log.end(sort_span);
  const std::size_t trits = st.sorter->shape().trits();
  if (traced) {
    st.sorted_rounds += group.flat.size() / trits;
    r.full_group_rounds += group.flat.size() / trits;
    if (st.sample_groups.size() < 4) st.sample_groups.emplace_back(group.flat, out);
  }
  std::size_t offset = 0;
  for (std::size_t i = 0; i < group.requests.size(); ++i) {
    const SortRequest& req = group.requests[i].request;
    const Frame& f = w.frames[st.pending_frames[i]];
    SortResponse rsp;
    rsp.shape = req.shape;
    rsp.rounds = req.rounds;
    rsp.values_requested = req.values_requested;
    rsp.payload.assign(out.begin() + static_cast<std::ptrdiff_t>(offset),
                       out.begin() + static_cast<std::ptrdiff_t>(
                                         offset + req.rounds * trits));
    offset += req.rounds * trits;
    if (!s.ok()) rsp = SortResponse::failure(s, req.shape, req.values_requested, req.rounds);
    const std::uint32_t enc = r.log.begin(kWireEncodeResponse, seq, parent);
    const std::vector<std::uint8_t> bytes =
        req.rounds > 1 ? mcsn::wire::encode_batch_response(rsp)
                       : mcsn::wire::encode_response(rsp);
    r.log.end(enc);
    const std::uint32_t dec = r.log.begin(kWireDecodeResponse, seq, parent);
    StatusOr<SortResponse> back = decode_response_frame(bytes);
    r.log.end(dec);
    if (!back.ok() || !back->status.ok() || back->payload != f.expect) {
      r.tally.fail("layer replay: wrong answer for frame " +
                   std::to_string(st.pending_frames[i]));
    }
  }
  st.pending_frames.erase(st.pending_frames.begin(),
                          st.pending_frames.begin() +
                              static_cast<std::ptrdiff_t>(group.requests.size()));
}

/// Replays the workload's frames in request order through each layer's
/// public function, one span per call.
void replay_layers(LayerReplay& r, const Workload& w) {
  mcsn::McSorterOptions opt;
  std::map<ShapeKey, ShapeState> states;
  for (const SortShape& shape : w.shapes) {
    const std::uint32_t span = r.log.begin(kComposeBuild, 0);
    const mcsn::NetworkBuilder builder(mcsn::builder_options(opt));
    StatusOr<mcsn::BuiltNetwork> built = builder.build(shape.channels);
    if (built.ok()) {
      states[key_of(shape)].sorter = std::make_shared<const mcsn::McSorter>(
          std::move(*built), shape.bits, opt);
    }
    r.log.end(span);
    if (!built.ok()) {
      r.tally.fail("compose: " + built.status().to_string());
      return;
    }
  }
  // The pool under test for acquire(); warmed untimed so every replayed
  // acquire is a hit, as on the serving path.
  mcsn::SorterPool pool(opt);
  (void)pool.warmup(w.shapes);
  mcsn::MicroBatcher batcher(kLanes, std::chrono::microseconds(200));

  std::size_t frames = 0;
  if (w.open_loop) {
    frames = std::min(kReplayArrivals, w.order.size());
  } else {
    const std::size_t per_pass = w.frames.size() * w.frames.front().rounds;
    frames = w.frames.size() * ((kReplayRounds + per_pass - 1) / per_pass);
  }
  for (std::uint64_t seq = 0; seq < frames; ++seq) {
    const std::size_t index = w.frame_of(seq);
    const Frame& f = w.frames[index];
    ShapeState& st = states[key_of(f.shape)];
    ++r.tally.attempted;
    const std::uint32_t root = r.log.begin(kReplayFrame, seq);
    const std::uint32_t dec = r.log.begin(kWireDecodeRequest, seq, root);
    StatusOr<SortRequest> req = decode_request_frame(f.bytes);
    r.log.end(dec);
    if (!req.ok()) {
      r.tally.fail("layer replay: decode: " + req.status().to_string());
      r.log.end(root);
      continue;
    }
    const std::uint32_t enc = r.log.begin(kWireEncodeRequest, seq, root);
    const std::vector<std::uint8_t> again =
        req->rounds > 1 ? mcsn::wire::encode_batch_request(*req)
                        : mcsn::wire::encode_request(*req);
    r.log.end(enc);
    if (again != f.bytes) r.tally.fail("layer replay: re-encoded frame differs");
    const std::uint32_t acq = r.log.begin(kPoolAcquire, seq, root);
    StatusOr<std::shared_ptr<const mcsn::McSorter>> pooled =
        pool.acquire(f.shape.channels, f.shape.bits);
    r.log.end(acq);
    if (!pooled.ok()) {
      r.tally.fail("layer replay: acquire: " + pooled.status().to_string());
      r.log.end(root);
      continue;
    }
    st.pending_frames.push_back(index);
    st.replayed_rounds += f.rounds;
    r.rounds += f.rounds;
    const auto now = Clock::now();
    const std::uint32_t add = r.log.begin(kBatcherAdd, seq, root);
    mcsn::MicroBatcher::AddResult added = batcher.add(
        st.sorter, mcsn::PendingSort{std::move(*req), [](SortResponse) {}, now}, now);
    r.log.end(add);
    if (added.full) execute_group(r, st, w, std::move(*added.full), root, seq, true);
    r.log.end(root);
  }
  for (mcsn::BatchGroup& g : batcher.take_all()) {
    ShapeState& st = states[key_of(g.sorter->shape())];
    execute_group(r, st, w, std::move(g), Span::kNoParent, frames, false);
  }

  // Gate evaluation alone: the compiled program on planes packed before
  // the clock starts, one 256-lane run per span.
  for (auto& [shape_key, st] : states) {
    const mcsn::CompiledProgram prog =
        mcsn::CompiledProgram::compile(st.sorter->netlist());
    const double weight = static_cast<double>(st.replayed_rounds);
    r.live_gates_weighted += static_cast<double>(prog.live_gate_count()) * weight;
    r.levels_weighted += static_cast<double>(prog.level_count()) * weight;
    if (st.sample_groups.empty()) continue;
    const std::size_t width = prog.input_count();
    std::vector<std::vector<mcsn::PackedTrit256>> planes;
    for (const auto& [flat, sorted] : st.sample_groups) {
      std::vector<mcsn::PackedTrit256> p(width);
      for (std::size_t i = 0; i < width; ++i) {
        for (std::size_t lane = 0; lane < kLanes; ++lane) {
          p[i].set_lane(static_cast<int>(lane), flat[lane * width + i]);
        }
      }
      planes.push_back(std::move(p));
    }
    mcsn::CompiledExecutor<mcsn::Packed256Backend> exec(prog);
    const std::size_t runs = std::max<std::size_t>(8, st.sorted_rounds / kLanes);
    std::int64_t eval_ns = 0;
    for (std::size_t k = 0; k < runs; ++k) {
      const std::uint32_t span = r.log.begin(kEngineEval, k);
      (void)exec.run(planes[k % planes.size()]);
      r.log.end(span);
      eval_ns += r.log.spans()[span].end_ns - r.log.spans()[span].start_ns;
    }
    // The last run must reproduce sort_batch_flat's output for its group.
    const std::vector<Trit>& sorted = st.sample_groups[(runs - 1) % planes.size()].second;
    const std::size_t outs = prog.output_count();
    for (std::size_t lane = 0; lane < kLanes; ++lane) {
      for (std::size_t o = 0; o < outs; ++o) {
        if (exec.output_lane(o, static_cast<int>(lane)) != sorted[lane * outs + o]) {
          r.tally.fail("engine eval: output differs from sort_batch_flat");
          lane = kLanes;
          break;
        }
      }
    }
    r.eval_ns_weighted += static_cast<double>(eval_ns) /
                          static_cast<double>(runs * kLanes) *
                          static_cast<double>(st.sorted_rounds);
  }
}

double per(double total, double count) {
  return count > 0 ? total / count : 0.0;
}

}  // namespace

LayerReport run_traced(Stack& stack, const Workload& w, double warmup_s,
                       double seconds, const std::string& trace_path) {
  LayerReport rep;
  Tally tally;
  const double half = seconds / 2.0;

  // 1. Untraced, on the same connection: the baseline for the overhead,
  //    the thread CPU split and the byte count.
  LoopbackResult base = run_loopback(stack, w, warmup_s, half);

  // 2. Traced: the client re-encodes every frame and spans encode, send,
  //    recv and decode.
  std::vector<SortRequest> requests;
  requests.reserve(w.frames.size());
  for (const Frame& f : w.frames) {
    StatusOr<SortRequest> req = decode_request_frame(f.bytes);
    if (!req.ok()) {
      rep.failed = 1;
      rep.attempted = 1;
      rep.first_error = "corpus frame does not decode: " + req.status().to_string();
      return rep;
    }
    requests.push_back(std::move(*req));
  }
  const Clock::time_point epoch = Clock::now();
  SpanLog send_log(epoch, 1 << 18);
  SpanLog recv_log(epoch, 1 << 20);
  LoopbackResult traced = run_loopback(stack, w, warmup_s, half,
                                       ClientTrace{&send_log, &recv_log, &requests});

  // 3. Registry counts, read once after the socket runs.
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  double lane_occupancy = 0.0;
  for (const mcsn::MetricsRegistry::Series& s : stack.service->registry().snapshot()) {
    if (s.name == "pool_hits_total") hits += s.counter_value;
    if (s.name == "pool_misses_total") misses += s.counter_value;
    if (s.name == "serve_batch_lanes") {
      lane_occupancy = s.histogram.mean() / static_cast<double>(kLanes);
    }
  }

  // 4. SortService::submit -> callback on the same arrival pattern.
  std::vector<double> done_us = replay_service(
      *stack.service, w, requests, std::min(kServiceReplayS, half), tally);

  // 5. Each layer's public function, in request order.
  LayerReplay replay(epoch);
  replay_layers(replay, w);

  for (const LoopbackResult* run : {&base, &traced}) {
    tally.attempted += run->attempted;
    tally.failed += run->failed;
    if (tally.first_error.empty()) tally.first_error = run->first_error;
  }
  tally.attempted += replay.tally.attempted;
  tally.failed += replay.tally.failed;
  if (tally.first_error.empty()) tally.first_error = replay.tally.first_error;

  const SpanLog& rl = replay.log;
  SpanLog all(epoch, send_log.spans().size() + recv_log.spans().size() +
                         rl.spans().size());
  all.merge(rl);
  all.merge(send_log);
  all.merge(recv_log);
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(trace_path).parent_path(), ec);
  std::ostringstream header;
  header << "{\"workload\": \"" << w.name << "\", \"host\": "
         << host_fingerprint_json() << "}";
  if (!write_trace(trace_path, all, header.str(), kTraceSpansWritten)) {
    tally.fail("could not write trace file " + trace_path);
  }

  const double rounds = static_cast<double>(replay.rounds);
  const double traced_rounds = static_cast<double>(traced.rounds);
  const double sort_ns = per(static_cast<double>(rl.total_ns(kEngineSort)),
                             static_cast<double>(replay.full_group_rounds));
  const double eval_ns =
      per(replay.eval_ns_weighted, static_cast<double>(replay.full_group_rounds));
  const double base_p50 = percentile(base.latency_us, 0.5);
  const double done_p50 = percentile(done_us, 0.5);
  const auto add = [&rep](const char* name, double value, const char* unit) {
    rep.metrics.push_back({name, value, unit});
  };
  add("wire.encode_ns_per_round",
      per(static_cast<double>(rl.total_ns(kWireEncodeRequest) +
                              rl.total_ns(kWireEncodeResponse)),
          rounds),
      "ns");
  add("wire.decode_ns_per_round",
      per(static_cast<double>(rl.total_ns(kWireDecodeRequest) +
                              rl.total_ns(kWireDecodeResponse)),
          rounds),
      "ns");
  add("wire.bytes_per_round",
      per(static_cast<double>(base.request_bytes + base.response_bytes),
          static_cast<double>(base.rounds)),
      "bytes");
  add("net.rtt_overhead_us", base_p50 - done_p50, "us");
  add("service.done_us_p50", done_p50, "us");
  add("service.done_us_p99", percentile(done_us, 0.99), "us");
  add("batcher.add_ns_per_round",
      per(static_cast<double>(rl.total_ns(kBatcherAdd)), rounds), "ns");
  add("batcher.lane_occupancy", lane_occupancy, "ratio");
  add("pool.acquire_ns",
      per(static_cast<double>(rl.total_ns(kPoolAcquire)),
          static_cast<double>(rl.count(kPoolAcquire))),
      "ns");
  add("pool.hit_ratio",
      per(static_cast<double>(hits), static_cast<double>(hits + misses)), "ratio");
  add("engine.sort_ns_per_round", sort_ns, "ns");
  add("engine.eval_ns_per_round", eval_ns, "ns");
  add("engine.io_ns_per_round", sort_ns - eval_ns, "ns");
  add("engine.live_gates", per(replay.live_gates_weighted, rounds), "count");
  add("engine.levels", per(replay.levels_weighted, rounds), "count");
  add("compose.build_ms",
      static_cast<double>(rl.total_ns(kComposeBuild)) / 1e6, "ms");
  add("loadgen.lag_p99_us", percentile(base.lag_us, 0.99), "us");
  add("client.encode_ns_per_round",
      per(static_cast<double>(send_log.total_ns(kClientEncode)), traced_rounds), "ns");
  add("client.send_ns_per_round",
      per(static_cast<double>(send_log.total_ns(kClientSend)), traced_rounds), "ns");
  add("client.recv_ns_per_round",
      per(static_cast<double>(recv_log.total_ns(kClientRecv)), traced_rounds), "ns");
  add("client.decode_ns_per_round",
      per(static_cast<double>(recv_log.total_ns(kClientDecode)), traced_rounds), "ns");
  add("thread.worker_busy_share", base.worker_busy, "share");
  add("thread.loop_busy_share", base.loop_busy, "share");
  add("thread.client_send_busy_share", base.send_busy, "share");
  add("thread.client_recv_busy_share", base.recv_busy, "share");
  add("bottleneck.worker_over_loop", per(base.worker_busy, base.loop_busy), "ratio");
  add("trace.overhead_rounds_per_s", traced.rounds_per_s() - base.rounds_per_s(), "1/s");
  add("trace.overhead_p50_us", percentile(traced.latency_us, 0.5) - base_p50, "us");
  add("error_share",
      per(static_cast<double>(tally.failed), static_cast<double>(tally.attempted)),
      "share");

  std::ostringstream why;
  why.precision(3);
  if (w.open_loop) {
    why << "none: open loop at " << w.rate << " req/s";
  } else {
    why << (base.worker_busy >= base.loop_busy ? "worker" : "event loop")
        << " (CPU busy: worker " << base.worker_busy << ", event loop "
        << base.loop_busy << ")";
  }
  rep.bottleneck = why.str();

  rep.attempted = tally.attempted;
  rep.failed = tally.failed;
  rep.first_error = tally.first_error;
  return rep;
}

}  // namespace perfbench
