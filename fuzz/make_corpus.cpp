// Deterministic seed-corpus generator for the wire fuzz harnesses.
//
//   fuzz_make_corpus <output-dir>       (default: fuzz/corpus relative
//                                        to the working directory)
//
// Writes fuzz/corpus/wire_decode/*.bin and fuzz/corpus/wire_stream/*.bin:
// one well-formed frame of every wire type in both payload encodings,
// trit payloads ending 1-7 trits past a multiple of eight, plus the
// canonical malformations (truncations, bad magic/version/type, oversized
// length prefix, invalid trits at and around a word boundary,
// non-canonically-padded trits, the saturating deadline regression) and,
// for the stream target, multi-frame streams with and without corrupt or
// truncated tails. The fuzzers start
// from full branch coverage of the frame vocabulary instead of having to
// invent an 8-byte header by mutation; the same files replay as a
// regression suite under the standalone driver (see standalone_main.cpp).
//
// Output is a pure function of the codec: regenerate after a wire change
// and commit the diff. With MCSN_BUILD_FUZZERS=ON, ctest's
// fuzz_corpus_matches_generator fails on any differing, missing or extra
// seed file.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "mcsn/api/sort_api.hpp"
#include "mcsn/serve/wire.hpp"

namespace {

namespace fs = std::filesystem;
using namespace mcsn;

using Bytes = std::vector<std::uint8_t>;

/// The harnesses' fixed clock instant (fuzz_common.hpp) — encode with the
/// same anchor so deadline-bearing seeds decode to clean budgets.
std::chrono::steady_clock::time_point fixed_now() {
  return std::chrono::steady_clock::time_point(
      std::chrono::nanoseconds(std::int64_t{1} << 40));
}

void put_u32(Bytes& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void put_u64(Bytes& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

/// Hand-rolled framing for deliberately malformed seeds the real encoders
/// refuse to produce.
Bytes raw_frame(std::uint8_t version, std::uint8_t type, const Bytes& body) {
  Bytes frame{wire::kMagic0, wire::kMagic1, version, type};
  put_u32(frame, static_cast<std::uint32_t>(body.size()));
  frame.insert(frame.end(), body.begin(), body.end());
  return frame;
}

SortRequest trit_request() {
  // 4 channels x 4 bits with one metastable trit and a deadline — the
  // paper's whole point is that M must survive transport.
  std::vector<Trit> trits(16, Trit::zero);
  trits[3] = Trit::one;
  trits[5] = Trit::meta;
  trits[9] = Trit::one;
  SortRequest request =
      std::move(SortRequest::own(SortShape{4, 4}, std::move(trits)).value());
  request.deadline = fixed_now() + std::chrono::milliseconds(5);
  return request;
}

SortRequest value_request() {
  const std::uint64_t values[3] = {7, 0, 12};
  return std::move(
      SortRequest::from_values(SortShape{3, 8}, values).value());
}

SortRequest batch_trit_request(std::size_t rounds) {
  std::vector<Trit> trits(rounds * 6, Trit::zero);
  for (std::size_t i = 0; i < trits.size(); i += 5) trits[i] = Trit::one;
  trits[2] = Trit::meta;
  return std::move(
      SortRequest::own_batch(SortShape{3, 2}, rounds, std::move(trits))
          .value());
}

SortResponse ok_response(const SortRequest& request) {
  SortResponse response;
  response.status = Status();
  response.shape = request.shape;
  response.rounds = request.rounds;
  response.payload.assign(request.payload.begin(), request.payload.end());
  response.values_requested = request.values_requested;
  response.latency = std::chrono::microseconds(42);
  return response;
}

void write(const fs::path& dir, const std::string& name, const Bytes& bytes) {
  std::ofstream out(dir / name, std::ios::binary);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  if (!out) {
    std::fprintf(stderr, "make_corpus: failed writing %s\n",
                 (dir / name).c_str());
    std::exit(1);
  }
}

Bytes truncated(Bytes bytes, std::size_t keep) {
  bytes.resize(keep < bytes.size() ? keep : bytes.size());
  return bytes;
}

Bytes concat(std::initializer_list<Bytes> parts) {
  Bytes all;
  for (const Bytes& part : parts) all.insert(all.end(), part.begin(), part.end());
  return all;
}

/// Stream-harness seeds carry a leading chunk-pattern byte.
Bytes stream_seed(std::uint8_t seed, const Bytes& stream) {
  Bytes all{seed};
  all.insert(all.end(), stream.begin(), stream.end());
  return all;
}

}  // namespace

int main(int argc, char** argv) {
  const fs::path root = argc > 1 ? fs::path(argv[1]) : fs::path("fuzz/corpus");
  const fs::path decode_dir = root / "wire_decode";
  const fs::path stream_dir = root / "wire_stream";
  fs::create_directories(decode_dir);
  fs::create_directories(stream_dir);
  const auto now = fixed_now();

  // --- well-formed frames, every type, both payload encodings ------------
  const Bytes req_trits = wire::encode_request(trit_request(), now);
  const Bytes req_values = wire::encode_request(value_request(), now);
  const Bytes batch_req = wire::encode_batch_request(batch_trit_request(4), now);
  SortRequest bvr = value_request();
  bvr.rounds = 1;  // batch frames accept rounds == 1 too
  const Bytes batch_req_values = wire::encode_batch_request(bvr, now);
  const Bytes rsp_ok = wire::encode_response(ok_response(trit_request()));
  const Bytes rsp_values = wire::encode_response(ok_response(value_request()));
  const Bytes rsp_error = wire::encode_response(SortResponse::failure(
      Status::invalid_argument("ragged round"), SortShape{4, 4}));
  const Bytes batch_rsp =
      wire::encode_batch_response(ok_response(batch_trit_request(4)));
  const Bytes batch_rsp_error = wire::encode_batch_response(
      SortResponse::failure(Status::deadline_exceeded("batch expired"),
                            SortShape{3, 2}, false, 4));
  const Bytes stats_req_json =
      wire::encode_stats_request(wire::StatsFormat::json);
  const Bytes stats_req_prom =
      wire::encode_stats_request(wire::StatsFormat::prometheus);
  const Bytes stats_rsp = wire::encode_stats_response(
      {Status(), wire::StatsFormat::json, "{\"counters\":{}}"});
  const Bytes stats_rsp_error = wire::encode_stats_response(
      {Status::unavailable("draining"), wire::StatsFormat::prometheus, ""});

  write(decode_dir, "req_trits.bin", req_trits);
  write(decode_dir, "req_values.bin", req_values);
  write(decode_dir, "batch_req_trits.bin", batch_req);
  write(decode_dir, "batch_req_values.bin", batch_req_values);
  // A type-3 frame of one trit round: batch-bounded, unlike type 1.
  write(decode_dir, "batch_req_one_round.bin",
        wire::encode_batch_request(batch_trit_request(1), now));
  write(decode_dir, "rsp_ok_trits.bin", rsp_ok);
  write(decode_dir, "rsp_ok_values.bin", rsp_values);
  write(decode_dir, "rsp_error.bin", rsp_error);
  write(decode_dir, "batch_rsp_ok.bin", batch_rsp);
  write(decode_dir, "batch_rsp_error.bin", batch_rsp_error);
  write(decode_dir, "stats_req_json.bin", stats_req_json);
  write(decode_dir, "stats_req_prometheus.bin", stats_req_prom);
  write(decode_dir, "stats_rsp_ok.bin", stats_rsp);
  write(decode_dir, "stats_rsp_error.bin", stats_rsp_error);

  // --- canonical malformations -------------------------------------------
  write(decode_dir, "trunc_header.bin", truncated(req_trits, 5));
  write(decode_dir, "trunc_body.bin", truncated(req_trits, req_trits.size() - 3));
  {
    Bytes bad = req_trits;
    bad[1] = 0x58;  // not 'C'
    write(decode_dir, "bad_magic.bin", bad);
    bad = req_trits;
    bad[2] = 9;  // unsupported version
    write(decode_dir, "bad_version.bin", bad);
    bad = req_trits;
    bad[3] = 7;  // unknown frame type
    write(decode_dir, "bad_type.bin", bad);
    bad = batch_req;
    bad[2] = 1;  // batch type under a v1 header
    write(decode_dir, "batch_under_v1.bin", bad);
    bad = req_trits;
    bad[4] = 0xff;  // length prefix far beyond kMaxBody
    bad[5] = 0xff;
    bad[6] = 0xff;
    bad[7] = 0xff;
    write(decode_dir, "huge_length.bin", truncated(bad, wire::kHeaderSize));
    bad = req_trits;
    bad.back() |= 0x03 << 6;  // 11 = invalid trit in the final slot
    write(decode_dir, "invalid_trit.bin", bad);
  }
  {
    // Non-canonical padding: 2x3-bit shape -> 6 trits -> 2 bytes with 2
    // padding bits that must be zero; set them.
    std::vector<Trit> trits(6, Trit::one);
    Bytes frame = wire::encode_request(
        std::move(SortRequest::own(SortShape{2, 3}, std::move(trits)).value()),
        now);
    frame.back() |= 0x03 << 4;
    write(decode_dir, "bad_padding.bin", frame);
  }
  // Payload tails: the codec moves eight trits per 64-bit step, so
  // payloads ending 1-7 trits past a multiple of eight (one channel of
  // 8 + r bits) reach its partial final word, as requests and responses.
  std::vector<Bytes> tails;
  for (std::size_t r = 1; r <= 7; ++r) {
    std::vector<Trit> trits(8 + r);
    for (std::size_t i = 0; i < trits.size(); ++i) {
      trits[i] = trit_from_index(static_cast<int>((i * 7 + r) % 3));
    }
    const SortRequest request = std::move(
        SortRequest::own(SortShape{1, 8 + r}, std::move(trits)).value());
    tails.push_back(wire::encode_request(request, now));
    write(decode_dir, "req_tail_" + std::to_string(r) + ".bin", tails.back());
    write(decode_dir, "rsp_tail_" + std::to_string(r) + ".bin",
          wire::encode_response(ok_response(request)));
  }
  {
    // A code 3 at index 7 (the end of the first word), 8 (the start of the
    // second) and 12 (the last trit of the 13-trit tail): kDataLoss naming
    // that index.
    const Bytes& tail = tails[4];
    for (const std::size_t at : {std::size_t{7}, std::size_t{8},
                                 std::size_t{12}}) {
      Bytes bad = tail;
      bad[wire::kHeaderSize + 20 + at / 4] |=
          static_cast<std::uint8_t>(0x03 << (2 * (at % 4)));
      write(decode_dir, "invalid_trit_at_" + std::to_string(at) + ".bin", bad);
    }
  }
  {
    // Unknown flag bit set (bit 1) on an otherwise valid request.
    Bytes frame = req_trits;
    frame[wire::kHeaderSize + 8] |= 0x02;
    write(decode_dir, "unknown_flags.bin", frame);
  }
  {
    // The deadline-saturation regression: a budget past 2^63 ns must
    // clamp, not overflow the clock rep (see kMaxDeadlineNs in wire.cpp).
    Bytes body;
    put_u32(body, 2);  // channels
    put_u32(body, 2);  // bits
    put_u32(body, 0);  // flags
    put_u64(body, ~std::uint64_t{0});  // deadline budget: u64 max
    body.push_back(0x00);  // 4 trits, all zero, canonical
    write(decode_dir, "deadline_saturating.bin",
          raw_frame(wire::kVersionMin,
                    static_cast<std::uint8_t>(wire::FrameType::request), body));
  }
  {
    // An out-of-range value (256 at 8 bits) in a v1 request and in a batch
    // request: kDataLoss in every sort frame type.
    Bytes bad = req_values;
    bad[wire::kHeaderSize + 20] = 0x00;
    bad[wire::kHeaderSize + 21] = 0x01;
    write(decode_dir, "req_value_out_of_range.bin", bad);
    bad = batch_req_values;
    bad[wire::kHeaderSize + 24] = 0x00;
    bad[wire::kHeaderSize + 25] = 0x01;
    write(decode_dir, "batch_req_value_out_of_range.bin", bad);
  }
  {
    // Zero-round batch request (decoder must reject, not divide).
    Bytes body;
    put_u32(body, 3);
    put_u32(body, 2);
    put_u32(body, 0);
    put_u64(body, 0);
    put_u32(body, 0);  // rounds = 0
    write(decode_dir, "batch_zero_rounds.bin",
          raw_frame(wire::kVersionBatch,
                    static_cast<std::uint8_t>(wire::FrameType::batch_request),
                    body));
  }

  // --- stream seeds (leading byte = chunk-pattern seed) -------------------
  write(stream_dir, "single.bin", stream_seed(1, req_trits));
  write(stream_dir, "pipelined.bin",
        stream_seed(7, concat({req_trits, req_values, batch_req,
                               stats_req_json, req_trits})));
  write(stream_dir, "responses.bin",
        stream_seed(11, concat({rsp_ok, batch_rsp, stats_rsp, rsp_error})));
  write(stream_dir, "trailing_garbage.bin",
        stream_seed(23, concat({req_trits, {0xde, 0xad, 0xbe, 0xef}})));
  write(stream_dir, "corrupt_second.bin", [&] {
    Bytes second = req_values;
    second[0] = 0x00;  // bad magic mid-stream
    return stream_seed(5, concat({req_trits, second, req_trits}));
  }());
  write(stream_dir, "truncated_tail.bin",
        stream_seed(13, concat({batch_req, truncated(req_trits, 11)})));
  write(stream_dir, "empty.bin", stream_seed(3, {}));
  write(stream_dir, "tails.bin",
        stream_seed(17, concat({tails[0], tails[1], tails[2], tails[3],
                                tails[4], tails[5], tails[6]})));

  std::printf("make_corpus: wrote seeds under %s\n", root.c_str());
  return 0;
}
