// Introspection endpoint and flight recorder tests: unix-socket scrape
// server behavior (handlers, built-ins, error paths), flight-recorder
// dump shape on every trigger path (stream, file, signal-safe writer,
// crash-dump hook), and the SolverService integration that exposes
// /requests (src/obs/introspect.hpp, src/obs/flight_recorder.hpp,
// docs/OBSERVABILITY.md).
//
// The server and recorder build in both HGP_OBS modes; only tests that
// need the *service* to start the endpoint (an HGP_OBS_ENABLED-gated
// wiring) or the macros to journal are gated.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "graph/generators.hpp"
#include "hierarchy/placement.hpp"
#include "obs/event_journal.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/introspect.hpp"
#include "obs/metrics.hpp"
#include "runtime/service.hpp"
#include "util/crash_dump.hpp"
#include "util/prng.hpp"

namespace hgp {
namespace {

using obs::EventJournal;
using obs::EventKind;
using obs::FlightRecorder;
using obs::IntrospectionServer;
using obs::IntrospectOptions;
using obs::introspect_fetch;

/// Unique short socket path (sockaddr_un caps paths near 100 bytes, so
/// /tmp, not the build tree).
std::string test_socket_path(const char* tag) {
  return (std::filesystem::temp_directory_path() /
          ("hgp-it-" + std::to_string(::getpid()) + "-" + tag + ".sock"))
      .string();
}

std::string read_file(const std::string& path) {
  std::ifstream is(path);
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

#if HGP_OBS_ENABLED
// Used only by the service-endpoint tests, which need the telemetry build.
Graph workload(std::uint64_t seed) {
  Rng rng(seed);
  Graph g = gen::planted_partition(24, 4, 0.75, 0.05, rng,
                                   gen::WeightRange{2.0, 6.0},
                                   gen::WeightRange{1.0, 2.0});
  gen::set_uniform_demands(g, 4.0 / 24.0);
  return g;
}

const Hierarchy& hier() {
  static const Hierarchy h({2, 2}, {4.0, 1.0, 0.0});
  return h;
}
#endif  // HGP_OBS_ENABLED

// ---------------------------------------------------------------------------
// IntrospectionServer: scrape round trips

TEST(Introspect, ServesRegisteredHandler) {
  IntrospectOptions opt;
  opt.socket_path = test_socket_path("handler");
  IntrospectionServer server(opt);
  server.register_handler("/hello", [](std::ostream& os) { os << "world"; });

  std::string body;
  const Status s = introspect_fetch(opt.socket_path, "/hello", &body);
  ASSERT_TRUE(s.ok()) << s.to_string();
  EXPECT_EQ(body, "world");
}

TEST(Introspect, ReRegisteringAPathReplacesTheHandler) {
  IntrospectOptions opt;
  opt.socket_path = test_socket_path("replace");
  IntrospectionServer server(opt);
  server.register_handler("/v", [](std::ostream& os) { os << "one"; });
  server.register_handler("/v", [](std::ostream& os) { os << "two"; });

  std::string body;
  ASSERT_TRUE(introspect_fetch(opt.socket_path, "/v", &body).ok());
  EXPECT_EQ(body, "two");
}

TEST(Introspect, BuiltinMetricsEndpointSpeaksPrometheus) {
  obs::MetricsRegistry::global().counter("introspect.test_scrapes").add(3);
  IntrospectOptions opt;
  opt.socket_path = test_socket_path("metrics");
  IntrospectionServer server(opt);

  std::string body;
  const Status s = introspect_fetch(opt.socket_path, "/metrics", &body);
  ASSERT_TRUE(s.ok()) << s.to_string();
  EXPECT_NE(body.find("# TYPE hgp_introspect_test_scrapes counter"),
            std::string::npos);
  EXPECT_NE(body.find("hgp_introspect_test_scrapes 3"), std::string::npos);
}

TEST(Introspect, BuiltinFlightRecorderEndpointReturnsDump) {
  IntrospectOptions opt;
  opt.socket_path = test_socket_path("fr");
  IntrospectionServer server(opt);

  std::string body;
  const Status s = introspect_fetch(opt.socket_path, "/flightrecorder", &body);
  ASSERT_TRUE(s.ok()) << s.to_string();
  EXPECT_NE(body.find("\"reason\": \"on-demand scrape\""), std::string::npos);
  EXPECT_NE(body.find("\"events\": ["), std::string::npos);
  EXPECT_NE(body.find("\"metrics\": "), std::string::npos);
}

TEST(Introspect, UnknownPathIsAnError) {
  IntrospectOptions opt;
  opt.socket_path = test_socket_path("404");
  IntrospectionServer server(opt);

  std::string body;
  const Status s = introspect_fetch(opt.socket_path, "/no-such", &body);
  EXPECT_FALSE(s.ok());
}

TEST(Introspect, FetchFailsCleanlyWithoutAServer) {
  std::string body;
  const Status s = introspect_fetch(test_socket_path("absent"), "/metrics",
                                    &body);
  EXPECT_FALSE(s.ok());
}

TEST(Introspect, UnbindablePathThrowsInternal) {
  IntrospectOptions opt;
  // sockaddr_un cannot hold this, so construction must fail loudly
  // (callers that treat the endpoint as optional catch and log).
  opt.socket_path = "/tmp/" + std::string(300, 'x') + ".sock";
  try {
    IntrospectionServer server(opt);
    FAIL() << "bind should have failed";
  } catch (const SolveError& e) {
    EXPECT_EQ(e.status().code, StatusCode::kInternal);
  }
}

TEST(Introspect, StaleSocketFileIsReclaimed) {
  const std::string path = test_socket_path("stale");
  // A dead server's leftover socket file would make a naive bind fail
  // with EADDRINUSE forever; the server must unlink-then-bind.
  { std::ofstream stale(path); stale << "stale"; }
  ASSERT_TRUE(std::filesystem::exists(path));
  IntrospectionServer server(IntrospectOptions{path, 50});
  std::string body;
  EXPECT_TRUE(introspect_fetch(path, "/metrics", &body).ok());
}

// ---------------------------------------------------------------------------
// FlightRecorder: dump paths

TEST(FlightRecorder, WriteJsonCarriesJournalAndMetrics) {
  EventJournal::global().clear();
  EventJournal::global().record(EventKind::kSubmit, 21, 0, 0, 0);
  EventJournal::global().record(
      EventKind::kWatchdogCancel, 21, 2, 0,
      static_cast<std::uint8_t>(StatusCode::kCancelled));

  std::ostringstream os;
  FlightRecorder::global().write_json(os, "test \"hostile\"\nreason");
  const std::string dump = os.str();
  EXPECT_NE(dump.find("\"reason\": \"test \\\"hostile\\\"\\nreason\""),
            std::string::npos);
  EXPECT_NE(dump.find("\"kind\": \"submit\""), std::string::npos);
  EXPECT_NE(dump.find("\"kind\": \"watchdog_cancel\""), std::string::npos);
  EXPECT_NE(dump.find("\"status\": \"CANCELLED\""), std::string::npos);
  EXPECT_NE(dump.find("\"request\": 21"), std::string::npos);
  EXPECT_NE(dump.find("\"metrics\": "), std::string::npos);
  EventJournal::global().clear();
}

TEST(FlightRecorder, DumpToFileWritesAndReportsFailures) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("hgp-it-dump-" + std::to_string(::getpid()) + ".json"))
          .string();
  const Status ok = FlightRecorder::global().dump_to_file(path, "unit test");
  ASSERT_TRUE(ok.ok()) << ok.to_string();
  const std::string dump = read_file(path);
  EXPECT_NE(dump.find("\"reason\": \"unit test\""), std::string::npos);
  EXPECT_NE(dump.find("\"events\": ["), std::string::npos);
  std::filesystem::remove(path);

  const Status bad = FlightRecorder::global().dump_to_file(
      "/nonexistent-dir-hgp/x.json", "unit test");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.code, StatusCode::kDataLoss);
}

TEST(FlightRecorder, SignalSafeWriterProducesEventsOnAPlainFd) {
  EventJournal::global().clear();
  for (int i = 0; i < 5; ++i) {
    EventJournal::global().record(EventKind::kBackoff, 4, 1, i, 0);
  }
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("hgp-it-sig-" + std::to_string(::getpid()) + ".json"))
          .string();
  const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0600);
  ASSERT_GE(fd, 0);
  FlightRecorder::write_signal_safe(fd);
  ::close(fd);
  const std::string dump = read_file(path);
  // The signal path omits metrics (registry lock) but keeps the events.
  EXPECT_NE(dump.find("\"reason\": \"fatal_signal\""), std::string::npos);
  EXPECT_NE(dump.find("\"kind\": \"backoff\""), std::string::npos);
  EXPECT_NE(dump.find("\"request\": 4"), std::string::npos);
  EXPECT_EQ(dump.find("\"metrics\""), std::string::npos);
  std::filesystem::remove(path);
  EventJournal::global().clear();
}

TEST(FlightRecorder, CrashDumpHookRunsTheSignalWriter) {
  EventJournal::global().clear();
  EventJournal::global().record(EventKind::kRetry, 8, 1, 1, 0);
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("hgp-it-crash-" + std::to_string(::getpid()) + ".json"))
          .string();
  FlightRecorder::install_signal_dump(path);
  ASSERT_TRUE(crash_dump_now());
  const std::string dump = read_file(path);
  EXPECT_NE(dump.find("\"kind\": \"retry\""), std::string::npos);
  // Disarm so later crashes in this process don't write a stale path.
  install_crash_dump(nullptr, nullptr);
  EXPECT_FALSE(crash_dump_now());
  std::filesystem::remove(path);
  EventJournal::global().clear();
}

// ---------------------------------------------------------------------------
// SolverService integration: the /requests endpoint

#if HGP_OBS_ENABLED
TEST(Introspect, ServiceExposesRequestsEndpoint) {
  const Graph g = workload(3);
  ServiceOptions sopt;
  sopt.workers = 1;
  sopt.obs_socket = test_socket_path("svc");
  SolverService service(sopt);

  std::string body;
  Status s = introspect_fetch(sopt.obs_socket, "/requests", &body);
  ASSERT_TRUE(s.ok()) << s.to_string();
  EXPECT_NE(body.find("\"queue_depth\":"), std::string::npos);
  EXPECT_NE(body.find("\"budget_utilization\":"), std::string::npos);
  EXPECT_NE(body.find("\"requests\":["), std::string::npos);

  // A live request shows up with an id row; scrape while it runs.
  SolverOptions opt;
  opt.num_trees = 2;
  auto req = service.submit(g, hier(), opt);
  std::string during;
  ASSERT_TRUE(
      introspect_fetch(sopt.obs_socket, "/requests", &during).ok());
  EXPECT_TRUE(req->wait().ok());

  // After completion the request leaves the live view again.  wait()
  // returns before the worker unlinks the entry from the in-flight list,
  // so poll the scrape briefly instead of asserting one snapshot.
  const std::string row = "{\"id\":" + std::to_string(req->id()) + ",";
  std::string after;
  for (int spin = 0; spin < 200; ++spin) {
    ASSERT_TRUE(introspect_fetch(sopt.obs_socket, "/requests", &after).ok());
    if (after.find(row) == std::string::npos) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(after.find(row), std::string::npos);

  // The journal recorded the request's lifecycle under its service id.
  bool saw_submit = false;
  for (const obs::JournalEvent& e : EventJournal::global().snapshot()) {
    saw_submit = saw_submit || (e.kind == EventKind::kSubmit &&
                                e.request_id == req->id());
  }
  EXPECT_TRUE(saw_submit);
}

TEST(Introspect, ServiceSurvivesUnbindableSocket) {
  // The endpoint is optional plumbing: a service whose socket cannot be
  // bound must still solve (it logs and runs without the endpoint).
  const Graph g = workload(5);
  ServiceOptions sopt;
  sopt.workers = 1;
  sopt.obs_socket = "/tmp/" + std::string(300, 'y') + ".sock";
  SolverService service(sopt);
  auto req = service.submit(g, hier());
  EXPECT_TRUE(req->wait().ok());
}
#endif  // HGP_OBS_ENABLED

}  // namespace
}  // namespace hgp
