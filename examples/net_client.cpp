// Network quickstart: the SortRequest API end-to-end over a socket,
// against a running `tool_sortd --listen` (TCP) or `--listen-unix`
// (AF_UNIX) server. Demonstrates the request flavors a real TDC client
// uses — integer values, zero-copy trit views, a marginal (metastable)
// measurement that must cross the wire without being amplified, and a
// multi-round batch frame (wire v2) that amortizes framing over a whole
// group — plus deadline budgets and error handling.
//
//   $ ./tool_sortd --listen 0 &          # prints "listening on 127.0.0.1:P"
//   $ ./example_net_client --port P
//   $ ./tool_sortd --listen-unix /tmp/mcsn.sock &
//   $ ./example_net_client --unix /tmp/mcsn.sock
//
// With --stats the client is a scraper instead: it sends a STATS admin
// frame (wire v2), validates the reply in BOTH formats, and prints the
// one picked by --format json|prometheus (default json) on stdout — CI
// pipes it into scripts/check_metrics.py.
//
//   $ ./example_net_client --port P --stats | python3 scripts/check_metrics.py
//   $ ./example_net_client --port P --stats --format prometheus
//
// Exits non-zero on any mismatch, so CI can use it as the socket smoke.

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <vector>

#include "mcsn/core/gray.hpp"
#include "mcsn/serve/net/client.hpp"
#include "mcsn/util/cli.hpp"

namespace {

int usage() {
  std::cerr << "usage: example_net_client --port P [--host H]"
               " [--channels N] [--stats [--format json|prometheus]]\n"
               "       example_net_client --unix PATH [--channels N]"
               " [--stats [--format json|prometheus]]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace mcsn;

  const CliArgs args(argc, argv,
                     {"host", "unix", "port", "channels", "stats", "format"});
  const std::string host = args.get_or("host", "127.0.0.1");
  const std::string unix_path = args.get_or("unix", "");
  const long port = args.get_long_or("port", 0);
  // --channels N sizes the integer round: anything beyond the optimal
  // catalog (n > 10) makes the server compose the network on demand, so
  // CI smokes a non-catalog shape with e.g. --channels 24.
  const long round_channels = args.get_long_or("channels", 6);
  if ((unix_path.empty() && (port < 1 || port > 65535)) ||
      round_channels < 2 || round_channels > 4096) {
    return usage();
  }

  // 1. Connect. A SortClient is one blocking connection (TCP or AF_UNIX,
  //    same protocol) speaking the length-prefixed frames of
  //    serve/wire.hpp. The timeout bounds the connect, not the requests.
  StatusOr<net::SortClient> client =
      unix_path.empty()
          ? net::SortClient::connect(host, static_cast<std::uint16_t>(port),
                                     std::chrono::seconds(5))
          : net::SortClient::connect_unix(unix_path, std::chrono::seconds(5));
  if (!client.ok()) {
    std::cerr << "connect: " << client.status().to_string() << "\n";
    return 1;
  }

  // Scraper mode: one STATS round-trip per format. Both renderings come
  // from the same registry snapshot machinery, so validating both here
  // catches a format-dispatch bug server-side; only the selected one is
  // printed (stdout stays pipeable).
  if (args.has("stats")) {
    const std::string format = args.get_or("format", "json");
    if (format != "json" && format != "prometheus") {
      std::cerr << "example_net_client: --format must be json or prometheus\n";
      return 2;
    }
    StatusOr<wire::StatsReply> json_reply =
        client->stats(wire::StatsFormat::json);
    if (!json_reply.ok() || !json_reply->status.ok()) {
      std::cerr << "stats(json): "
                << (json_reply.ok() ? json_reply->status : json_reply.status())
                       .to_string()
                << "\n";
      return 1;
    }
    if (json_reply->format != wire::StatsFormat::json ||
        json_reply->text.empty() || json_reply->text.front() != '{') {
      std::cerr << "stats(json): reply is not a JSON document\n";
      return 1;
    }
    StatusOr<wire::StatsReply> prom_reply =
        client->stats(wire::StatsFormat::prometheus);
    if (!prom_reply.ok() || !prom_reply->status.ok()) {
      std::cerr << "stats(prometheus): "
                << (prom_reply.ok() ? prom_reply->status : prom_reply.status())
                       .to_string()
                << "\n";
      return 1;
    }
    if (prom_reply->format != wire::StatsFormat::prometheus ||
        prom_reply->text.compare(0, 2, "# ") != 0) {
      std::cerr << "stats(prometheus): reply is not exposition text\n";
      return 1;
    }
    const std::string& text =
        format == "json" ? json_reply->text : prom_reply->text;
    std::cout << text;
    if (text.empty() || text.back() != '\n') std::cout << "\n";
    return 0;
  }

  // 2. Integer round trip: from_values Gray-encodes on the client; the
  //    response decodes straight back to integers. A fixed pseudo-random
  //    pattern (with repeats) fills whatever --channels asks for.
  std::vector<std::uint64_t> values;
  for (long i = 0; i < round_channels; ++i) {
    values.push_back((static_cast<std::uint64_t>(i) * 97 + 41) % 256);
  }
  const SortShape shape{static_cast<int>(values.size()), 8};
  StatusOr<SortRequest> request = SortRequest::from_values(shape, values);
  if (!request.ok()) {
    std::cerr << "from_values: " << request.status().to_string() << "\n";
    return 1;
  }
  // Optional: a deadline. It travels as a relative budget and the service
  // fails the request with kDeadlineExceeded rather than sorting it late.
  request->set_deadline_after(std::chrono::seconds(5));

  StatusOr<SortResponse> response = client->sort(*request);
  if (!response.ok() || !response->status.ok()) {
    std::cerr << "sort: "
              << (response.ok() ? response->status : response.status())
                     .to_string()
              << "\n";
    return 1;
  }
  const StatusOr<std::vector<std::uint64_t>> sorted = response->values();
  if (!sorted.ok()) {
    std::cerr << "values: " << sorted.status().to_string() << "\n";
    return 1;
  }
  std::vector<std::uint64_t> expect = values;
  std::sort(expect.begin(), expect.end());
  std::cout << (unix_path.empty() ? "sorted over TCP:" : "sorted over UDS:");
  for (const std::uint64_t v : *sorted) std::cout << " " << v;
  std::cout << "  (latency "
            << std::chrono::duration_cast<std::chrono::microseconds>(
                   response->latency)
                   .count()
            << "us)\n";
  if (*sorted != expect) {
    std::cerr << "MISMATCH vs std::sort\n";
    return 1;
  }

  // 3. The paper's guarantee, over the network: one marginal measurement
  //    (a single metastable bit) goes in, and exactly one metastable bit
  //    comes back — containment survives serialization.
  const std::size_t bits = 8;
  const Word clean = gray_encode(100, bits);
  Word marginal = gray_encode(100, bits);
  marginal[gray_flip_index(100, bits)] = Trit::meta;
  std::vector<Trit> flat;
  flat.insert(flat.end(), marginal.begin(), marginal.end());
  flat.insert(flat.end(), clean.begin(), clean.end());

  StatusOr<SortRequest> trit_request =
      SortRequest::view(SortShape{2, bits}, flat);  // zero-copy view
  if (!trit_request.ok()) {
    std::cerr << "view: " << trit_request.status().to_string() << "\n";
    return 1;
  }
  StatusOr<SortResponse> trit_response = client->sort(*trit_request);
  if (!trit_response.ok() || !trit_response->status.ok()) {
    std::cerr << "trit sort failed\n";
    return 1;
  }
  const long metastable =
      std::count(trit_response->payload.begin(), trit_response->payload.end(),
                 Trit::meta);
  std::cout << "marginal round: " << metastable
            << " metastable bit(s) after sorting (must be 1)\n";
  if (metastable != 1) {
    std::cerr << "containment violated over the wire\n";
    return 1;
  }

  // 4. Batch frames (wire v2): many independent rounds ride one
  //    request/response pair, amortizing the header, the syscalls and the
  //    dispatch — this is the high-throughput socket path. Rounds are
  //    concatenated into one flat buffer and each is sorted on its own.
  const SortShape bshape{2, 4};
  const std::vector<std::uint64_t> batch_values{9, 4, 15, 0, 3, 12};
  const std::size_t batch_rounds = batch_values.size() / 2;
  std::vector<Trit> batch_flat;
  std::vector<Trit> batch_expect;
  for (std::size_t r = 0; r < batch_rounds; ++r) {
    const std::uint64_t a = batch_values[2 * r];
    const std::uint64_t b = batch_values[2 * r + 1];
    for (const std::uint64_t v : {a, b}) {
      const Word w = gray_encode(v, bshape.bits);
      batch_flat.insert(batch_flat.end(), w.begin(), w.end());
    }
    for (const std::uint64_t v : {std::min(a, b), std::max(a, b)}) {
      const Word w = gray_encode(v, bshape.bits);
      batch_expect.insert(batch_expect.end(), w.begin(), w.end());
    }
  }
  StatusOr<SortRequest> batch =
      SortRequest::view_batch(bshape, batch_rounds, batch_flat);
  if (!batch.ok()) {
    std::cerr << "view_batch: " << batch.status().to_string() << "\n";
    return 1;
  }
  StatusOr<SortResponse> batch_rsp = client->sort_batch(*batch);
  if (!batch_rsp.ok() || !batch_rsp->status.ok()) {
    std::cerr << "batch sort failed\n";
    return 1;
  }
  if (batch_rsp->rounds != batch_rounds || batch_rsp->payload != batch_expect) {
    std::cerr << "batch MISMATCH\n";
    return 1;
  }
  std::cout << "batch frame: " << batch_rounds
            << " rounds sorted in one round-trip\n";

  // 5. Errors come back as Status values on the response, never as broken
  //    connections — here, integers that don't fit the declared width.
  StatusOr<SortRequest> bad =
      SortRequest::from_values(SortShape{2, 4}, std::vector<std::uint64_t>{
                                                    300, 1});  // 300 > 4 bits
  if (bad.ok()) {
    std::cerr << "from_values accepted an out-of-range value\n";
    return 1;
  }
  std::cout << "client-side validation: " << bad.status().to_string() << "\n";

  std::cout << "OK\n";
  return 0;
} catch (const mcsn::CliError& e) {
  std::cerr << "example_net_client: " << e.what() << "\n";
  return usage();
}
