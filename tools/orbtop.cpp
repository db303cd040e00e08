// orbtop: top(1) for a corbaft cluster.
//
// Connects to the naming service (stringified IOR), enumerates the reserved
// `_obs/*` telemetry bindings every runtime maintains (see
// obs/telemetry.hpp) and renders a cluster-wide table: Winner rank and load
// per host, RPC totals and rates, latency quantiles, recoveries,
// checkpoints, quarantine state and dispatch queue depth — all collected
// in-band over the same GIOP-lite wire the application uses.
//
// Watch mode subscribes an EventConsumer through every node's telemetry
// servant and re-renders from the live event stream — zero polling RPCs
// after the subscription.  Should the subscription fail, it falls back to
// collecting health() from every node each interval.
//
//   orbtop --ior <IOR:...>        naming service reference
//   orbtop --ior-file <path>      ... read from a file instead
//   orbtop --watch <seconds>      refresh continuously (enables RPC/s)
//   orbtop --json                 machine-readable snapshot(s); includes
//                                 "transport": "poll"|"push"
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "naming/naming_stub.hpp"
#include "obs/orbtop.hpp"
#include "orb/orb.hpp"

namespace {

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s (--ior <IOR:...> | --ior-file <path>) "
               "[--watch <seconds>] [--json]\n",
               argv0);
  return 2;
}

std::string read_ior_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read IOR file: " + path);
  std::string ior;
  in >> ior;  // first whitespace-delimited token; tolerates trailing newline
  return ior;
}

void render(const obs::ClusterSnapshot& snapshot,
            const obs::ClusterSnapshot* prev, bool json, bool watching) {
  if (json) {
    std::printf("%s\n", obs::render_json(snapshot).c_str());
  } else {
    if (watching) std::printf("\x1b[2J\x1b[H");  // clear, home
    std::fputs(obs::render_table(snapshot, prev).c_str(), stdout);
  }
  std::fflush(stdout);
}

}  // namespace

int main(int argc, char** argv) {
  std::string ior;
  double watch = 0.0;
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--ior" && i + 1 < argc) {
      ior = argv[++i];
    } else if (arg == "--ior-file" && i + 1 < argc) {
      try {
        ior = read_ior_file(argv[++i]);
      } catch (const std::exception& error) {
        std::fprintf(stderr, "orbtop: %s\n", error.what());
        return 1;
      }
    } else if (arg == "--watch" && i + 1 < argc) {
      watch = std::atof(argv[++i]);
      if (watch <= 0) {
        std::fprintf(stderr, "orbtop: --watch needs a positive interval\n");
        return 2;
      }
    } else if (arg == "--json") {
      json = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (ior.empty()) return usage(argv[0]);

  try {
    // Mostly a client, but push mode serves the EventConsumer callback
    // object on this endpoint.
    auto orb = corba::ORB::init({.endpoint_name = "orbtop", .enable_tcp = true});
    naming::NamingContextStub root(orb->string_to_object(ior));

    // Push applies to watch mode only: a single-shot run would tear the
    // subscription down before the first event could arrive.
    std::unique_ptr<obs::PushCollector> push;
    if (watch > 0) {
      try {
        push = std::make_unique<obs::PushCollector>(orb, root);
      } catch (const std::exception& error) {
        std::fprintf(stderr, "orbtop: push unavailable (%s); polling\n",
                     error.what());
      }
    }

    std::optional<obs::ClusterSnapshot> prev;
    for (;;) {
      const obs::ClusterSnapshot snapshot =
          push ? push->snapshot() : obs::collect_cluster(root);
      render(snapshot, prev ? &*prev : nullptr, json, watch > 0);
      if (watch <= 0) break;
      prev = snapshot;
      std::this_thread::sleep_for(std::chrono::duration<double>(watch));
    }
    push.reset();
    orb->shutdown();
  } catch (const std::exception& error) {
    std::fprintf(stderr, "orbtop: %s\n", error.what());
    return 1;
  }
  return 0;
}
