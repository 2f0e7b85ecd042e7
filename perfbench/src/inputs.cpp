#include "inputs.hpp"

#include <algorithm>
#include <fstream>
#include <set>
#include <stdexcept>
#include <utility>

namespace bench {

int uniform_int(Prng& rng, int lo, int hi) {
  return std::uniform_int_distribution<int>(lo, hi)(rng);
}

hgp::Graph GraphSpec::build() const {
  hgp::GraphBuilder b(n);
  for (const Edge& e : edges) b.add_edge(e.u, e.v, e.w);
  for (int v = 0; v < n; ++v) {
    b.set_demand(v, demand_milli[static_cast<std::size_t>(v)] / 1000.0);
  }
  return b.build();
}

void GraphSpec::write_metis(const std::string& path) const {
  std::vector<std::vector<std::pair<int, int>>> adj(
      static_cast<std::size_t>(n));
  for (const Edge& e : edges) {
    adj[static_cast<std::size_t>(e.u)].push_back({e.v, e.w});
    adj[static_cast<std::size_t>(e.v)].push_back({e.u, e.w});
  }
  std::string text = std::to_string(n) + " " + std::to_string(edges.size()) +
                     " 011\n";
  for (int v = 0; v < n; ++v) {
    text += std::to_string(demand_milli[static_cast<std::size_t>(v)]);
    for (const auto& [u, w] : adj[static_cast<std::size_t>(v)]) {
      text += " " + std::to_string(u + 1) + " " + std::to_string(w);
    }
    text += "\n";
  }
  std::ofstream os(path);
  os << text;
  if (!os) throw std::runtime_error("cannot write " + path);
}

bool same_shape(const GraphSpec& a, const GraphSpec& b) {
  long da = 0, db = 0;
  for (int d : a.demand_milli) da += d;
  for (int d : b.demand_milli) db += d;
  const auto ea = static_cast<double>(a.edges.size());
  const auto eb = static_cast<double>(b.edges.size());
  return a.n == b.n && da == db && eb >= 0.75 * ea && eb <= 1.25 * ea;
}

std::vector<int> demand_multiset(int n, const std::vector<int>& levels,
                                 Prng& rng) {
  std::vector<int> d(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    d[static_cast<std::size_t>(i)] =
        levels[static_cast<std::size_t>(i) % levels.size()];
  }
  std::shuffle(d.begin(), d.end(), rng);
  return d;
}

GraphSpec make_grid(int rows, int cols, int wmax,
                    const std::vector<int>& demand_levels, Prng& rng) {
  GraphSpec g;
  g.n = rows * cols;
  for (int i = 0; i < rows; ++i) {
    for (int j = 0; j < cols; ++j) {
      const int v = i * cols + j;
      if (j + 1 < cols) {
        g.edges.push_back({v, v + 1, uniform_int(rng, 1, wmax)});
      }
      if (i + 1 < rows) {
        g.edges.push_back({v, v + cols, uniform_int(rng, 1, wmax)});
      }
    }
  }
  g.demand_milli = demand_multiset(g.n, demand_levels, rng);
  return g;
}

GraphSpec make_stream_dag(int sources, int stages, int width, int sinks,
                          const std::vector<int>& demand_levels, Prng& rng) {
  std::vector<int> layer_size{sources};
  for (int s = 0; s < stages; ++s) layer_size.push_back(width);
  layer_size.push_back(sinks);
  std::vector<int> start;
  GraphSpec g;
  for (int size : layer_size) {
    start.push_back(g.n);
    g.n += size;
  }
  std::set<std::pair<int, int>> seen;
  const auto channel = [&](int u, int v) {
    if (!seen.insert({u, v}).second) return;
    const bool heavy = uniform_int(rng, 0, 4) == 0;
    g.edges.push_back(
        {u, v, heavy ? uniform_int(rng, 20, 50) : uniform_int(rng, 1, 4)});
  };
  for (std::size_t layer = 0; layer + 1 < layer_size.size(); ++layer) {
    const int next = layer_size[layer + 1];
    for (int i = 0; i < layer_size[layer]; ++i) {
      const int fanout = uniform_int(rng, 1, std::min(3, next));
      for (int f = 0; f < fanout; ++f) {
        channel(start[layer] + i,
                start[layer + 1] + uniform_int(rng, 0, next - 1));
      }
    }
    for (int j = 0; j < next; ++j) {
      channel(start[layer] + uniform_int(rng, 0, layer_size[layer] - 1),
              start[layer + 1] + j);
    }
  }
  g.demand_milli = demand_multiset(g.n, demand_levels, rng);
  return g;
}

GraphSpec make_pipeline(int layers, int width,
                        const std::vector<int>& demand_levels, Prng& rng) {
  GraphSpec g;
  g.n = layers * width;
  for (int l = 0; l + 1 < layers; ++l) {
    for (int i = 0; i < width; ++i) {
      g.edges.push_back({l * width + i, (l + 1) * width + i, 1});
      g.edges.push_back({l * width + i, (l + 1) * width + (i + 1) % width, 1});
    }
  }
  g.demand_milli = demand_multiset(g.n, demand_levels, rng);
  return g;
}

hgp::Hierarchy dp_machine() { return hgp::Hierarchy({4, 4, 4}, {10, 4, 1, 0}); }

std::vector<std::string> dp_machine_flags() {
  return {"--deg", "4,4,4", "--cm", "10,4,1,0", "--units",
          std::to_string(kDpUnits)};
}

GraphSpec make_cold_instance(int index, Prng& rng) {
  static const std::vector<int> kLevels{250, 350, 450, 550};
  if (index % 2 == 0) return make_grid(4, 8, 1, kLevels, rng);
  return make_pipeline(4, 8, kLevels, rng);
}

namespace {

hgp::Vertex random_live(const hgp::MutationLog& log, Prng& rng) {
  for (;;) {
    const auto v = static_cast<hgp::Vertex>(
        uniform_int(rng, 0, log.stable_id_count() - 1));
    if (log.alive(v)) return v;
  }
}

double nudged(double demand, Prng& rng) {
  const double f = std::uniform_real_distribution<double>(0.8, 1.2)(rng);
  return std::clamp(demand * f, 0.005, 0.08);
}

}  // namespace

void author_drift_batch(hgp::MutationLog& log, Prng& rng) {
  const hgp::Graph& g = log.base();
  const auto& edges = g.edges();
  const hgp::Edge& e = edges[static_cast<std::size_t>(
      uniform_int(rng, 0, static_cast<int>(edges.size()) - 1))];
  log.reweight_edge(e.u, e.v, uniform_int(rng, 1, 4));
  for (int k = 0; k < 2; ++k) {
    const hgp::Vertex v = random_live(log, rng);
    log.set_demand(v, nudged(log.demand_of(v), rng));
  }
}

void author_structural_batch(hgp::MutationLog& log, hgp::Vertex base_n,
                             Prng& rng) {
  const hgp::Vertex live = log.live_vertex_count();
  const bool add = live < base_n - 8 ||
                   (live <= base_n + 8 && uniform_int(rng, 0, 1) == 0);
  if (add) {
    const hgp::Vertex v =
        log.add_vertex(uniform_int(rng, 10, 50) / 1000.0);
    const int links = uniform_int(rng, 1, 3);
    for (int k = 0; k < links; ++k) {
      const hgp::Vertex u = random_live(log, rng);
      if (u != v && !log.has_edge(u, v)) {
        log.add_edge(u, v, uniform_int(rng, 1, 4));
      }
    }
  } else {
    log.remove_vertex(random_live(log, rng));
  }
  // One channel appears or disappears.
  const hgp::Vertex a = random_live(log, rng);
  const hgp::Vertex b = random_live(log, rng);
  if (a == b) return;
  if (log.has_edge(a, b)) {
    log.remove_edge(a, b);
  } else {
    log.add_edge(a, b, uniform_int(rng, 1, 4));
  }
}

}  // namespace bench
