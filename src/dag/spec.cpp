#include "dag/spec.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>

#include "common/hash.hpp"
#include "common/strings.hpp"
#include "workloads/synthetic.hpp"

namespace pmemflow::dag {
namespace {

constexpr std::string_view kBanner = "# pmemflow-dag v1";

bool name_char_ok(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
}

bool label_char_ok(char c) { return name_char_ok(c) || c == '+' || c == '@'; }

bool valid_name(std::string_view name) {
  return !name.empty() &&
         std::all_of(name.begin(), name.end(), name_char_ok);
}

bool valid_label(std::string_view label) {
  return !label.empty() &&
         std::all_of(label.begin(), label.end(), label_char_ok);
}

/// Canonical orderings: components by name, edges by (producer,
/// consumer). Field order in the input never affects fingerprints.
std::vector<std::size_t> canonical_component_order(const DagSpec& dag) {
  std::vector<std::size_t> order(dag.components.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return dag.components[a].name < dag.components[b].name;
  });
  return order;
}

std::vector<std::size_t> canonical_edge_order(const DagSpec& dag) {
  std::vector<std::size_t> order(dag.edges.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const DagEdge& ea = dag.edges[a];
    const DagEdge& eb = dag.edges[b];
    if (ea.producer != eb.producer) return ea.producer < eb.producer;
    return ea.consumer < eb.consumer;
  });
  return order;
}

const char* stack_name(workflow::WorkflowSpec::Stack stack) {
  return stack == workflow::WorkflowSpec::Stack::kNvStream ? "nvstream"
                                                           : "nova";
}

std::string render_f64(double value) { return format("%.17g", value); }

// ---- strict parsing helpers (trace-loader idiom: every failure names
// ---- its line) ----

Unexpected line_error(std::size_t line_no, const std::string& what) {
  return make_error(format("dag line %zu: %s", line_no, what.c_str()));
}

bool parse_u64(std::string_view text, std::uint64_t* out) {
  if (text.empty()) return false;
  for (char c : text) {
    if (c < '0' || c > '9') return false;
  }
  errno = 0;
  char* end = nullptr;
  const std::string buf(text);
  const unsigned long long value = std::strtoull(buf.c_str(), &end, 10);
  if (errno == ERANGE || end != buf.c_str() + buf.size()) return false;
  *out = value;
  return true;
}

bool parse_u32(std::string_view text, std::uint32_t* out) {
  std::uint64_t wide = 0;
  if (!parse_u64(text, &wide) || wide > 0xffffffffULL) return false;
  *out = static_cast<std::uint32_t>(wide);
  return true;
}

bool parse_hex64(std::string_view text, std::uint64_t* out) {
  if (text.empty() || text.size() > 16) return false;
  std::uint64_t value = 0;
  for (char c : text) {
    int digit = -1;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
    else if (c >= 'A' && c <= 'F') digit = c - 'A' + 10;
    else return false;
    value = (value << 4) | static_cast<std::uint64_t>(digit);
  }
  *out = value;
  return true;
}

bool parse_f64(std::string_view text, double* out) {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const std::string buf(text);
  const double value = std::strtod(buf.c_str(), &end);
  if (errno == ERANGE || end != buf.c_str() + buf.size()) return false;
  if (!std::isfinite(value)) return false;
  *out = value;
  return true;
}

/// One parsed `key=value` directive line. Keys must be unique per line.
struct DirectiveLine {
  std::string directive;
  std::map<std::string, std::string, std::less<>> pairs;
};

Expected<DirectiveLine> parse_directive(std::string_view line,
                                        std::size_t line_no) {
  DirectiveLine out;
  const std::vector<std::string> tokens = split(line, ' ');
  for (const std::string& token : tokens) {
    if (token.empty()) {
      return line_error(line_no, "empty token (double space?)");
    }
  }
  out.directive = tokens.front();
  for (std::size_t i = 1; i < tokens.size(); ++i) {
    const std::string& token = tokens[i];
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0) {
      return line_error(line_no,
                        format("token \"%s\" is not key=value", token.c_str()));
    }
    std::string key = token.substr(0, eq);
    std::string value = token.substr(eq + 1);
    if (!out.pairs.emplace(std::move(key), std::move(value)).second) {
      return line_error(
          line_no, format("duplicate key \"%s\"", token.substr(0, eq).c_str()));
    }
  }
  return out;
}

/// Fetches a required key, erasing it so leftovers can be reported as
/// unknown keys afterwards.
Expected<std::string> take_key(DirectiveLine& line, std::string_view key,
                               std::size_t line_no) {
  auto it = line.pairs.find(key);
  if (it == line.pairs.end()) {
    return line_error(line_no, format("missing key \"%.*s\"",
                                      static_cast<int>(key.size()),
                                      key.data()));
  }
  std::string value = std::move(it->second);
  line.pairs.erase(it);
  return value;
}

Status reject_leftovers(const DirectiveLine& line, std::size_t line_no) {
  if (line.pairs.empty()) return ok_status();
  return line_error(line_no, format("unknown key \"%s\"",
                                    line.pairs.begin()->first.c_str()));
}

}  // namespace

std::optional<std::size_t> component_index(const DagSpec& dag,
                                           std::string_view name) {
  for (std::size_t i = 0; i < dag.components.size(); ++i) {
    if (dag.components[i].name == name) return i;
  }
  return std::nullopt;
}

Status validate(const DagSpec& dag) {
  if (!valid_label(dag.label)) {
    return make_error(
        "dag label must be non-empty [A-Za-z0-9._+@-]: \"" + dag.label + "\"");
  }
  if (dag.iterations == 0) return make_error("dag needs >= 1 iteration");
  if (dag.components.empty()) {
    return make_error("dag needs >= 1 component");
  }
  std::set<std::string_view> names;
  for (const DagComponent& c : dag.components) {
    if (!valid_name(c.name)) {
      return make_error(
          "component name must be non-empty [A-Za-z0-9._-]: \"" + c.name +
          "\"");
    }
    if (!names.insert(c.name).second) {
      return make_error("duplicate component name \"" + c.name + "\"");
    }
    if (c.ranks == 0) {
      return make_error("component \"" + c.name + "\" needs >= 1 rank");
    }
    if (c.object_size == 0 || c.objects_per_rank == 0) {
      return make_error("component \"" + c.name +
                        "\" needs a non-empty part shape");
    }
    if (!std::isfinite(c.compute_ns) || c.compute_ns < 0.0 ||
        !std::isfinite(c.analytics_ns_per_object) ||
        c.analytics_ns_per_object < 0.0) {
      return make_error("component \"" + c.name +
                        "\" compute fields must be finite and >= 0");
    }
  }
  std::set<std::pair<std::string_view, std::string_view>> seen_edges;
  for (const DagEdge& e : dag.edges) {
    const auto producer = component_index(dag, e.producer);
    const auto consumer = component_index(dag, e.consumer);
    if (!producer) {
      return make_error("edge references unknown producer \"" + e.producer +
                        "\"");
    }
    if (!consumer) {
      return make_error("edge references unknown consumer \"" + e.consumer +
                        "\"");
    }
    if (*producer == *consumer) {
      return make_error("self-edge on component \"" + e.producer + "\"");
    }
    if (!seen_edges.insert({e.producer, e.consumer}).second) {
      return make_error("duplicate edge " + e.producer + " -> " + e.consumer);
    }
    if (dag.components[*producer].ranks != dag.components[*consumer].ranks) {
      return make_error(
          "edge " + e.producer + " -> " + e.consumer +
          " joins components with different rank counts (1:1 rank pairing, "
          "paper §IV-C)");
    }
  }
  if (dag.components.size() > 1 && dag.edges.empty()) {
    return make_error("multi-component dag needs >= 1 edge");
  }

  // Acyclicity (Kahn) and weak connectivity in one adjacency pass.
  const std::size_t n = dag.components.size();
  std::vector<std::vector<std::size_t>> succ(n);
  std::vector<std::vector<std::size_t>> undirected(n);
  std::vector<std::size_t> indegree(n, 0);
  for (const DagEdge& e : dag.edges) {
    const std::size_t p = *component_index(dag, e.producer);
    const std::size_t c = *component_index(dag, e.consumer);
    succ[p].push_back(c);
    undirected[p].push_back(c);
    undirected[c].push_back(p);
    ++indegree[c];
  }
  std::vector<std::size_t> frontier;
  for (std::size_t i = 0; i < n; ++i) {
    if (indegree[i] == 0) frontier.push_back(i);
  }
  std::size_t visited = 0;
  while (!frontier.empty()) {
    const std::size_t node = frontier.back();
    frontier.pop_back();
    ++visited;
    for (std::size_t next : succ[node]) {
      if (--indegree[next] == 0) frontier.push_back(next);
    }
  }
  if (visited != n) {
    return make_error("dag has a cycle (components must form a DAG)");
  }
  std::vector<bool> reached(n, false);
  frontier.assign(1, 0);
  reached[0] = true;
  std::size_t connected = 0;
  while (!frontier.empty()) {
    const std::size_t node = frontier.back();
    frontier.pop_back();
    ++connected;
    for (std::size_t next : undirected[node]) {
      if (!reached[next]) {
        reached[next] = true;
        frontier.push_back(next);
      }
    }
  }
  if (connected != n) {
    return make_error(
        "dag is disconnected (split unrelated pipelines into separate "
        "submissions)");
  }
  return ok_status();
}

Bytes bytes_per_iteration(const DagSpec& dag) {
  Bytes total = 0;
  for (const DagEdge& e : dag.edges) {
    const auto producer = component_index(dag, e.producer);
    if (!producer) continue;  // invalid specs report via validate()
    const DagComponent& c = dag.components[*producer];
    total += c.object_size * c.objects_per_rank * c.ranks;
  }
  return total;
}

std::uint64_t class_fingerprint(const DagSpec& dag) {
  Hasher64 hasher;
  hasher.update_string("pmemflow-dag");
  hasher.update_u64(1);  // format version
  hasher.update_u64(dag.iterations);
  hasher.update_bool(dag.verify_reads);
  hasher.update_u64(dag.components.size());
  for (std::size_t i : canonical_component_order(dag)) {
    const DagComponent& c = dag.components[i];
    hasher.update_string(c.name);
    hasher.update_u64(c.ranks);
    hasher.update_u64(c.object_size);
    hasher.update_u64(c.objects_per_rank);
    hasher.update_double(c.compute_ns);
    hasher.update_double(c.analytics_ns_per_object);
    hasher.update_u64(c.seed);
  }
  hasher.update_u64(dag.edges.size());
  for (std::size_t i : canonical_edge_order(dag)) {
    const DagEdge& e = dag.edges[i];
    hasher.update_string(e.producer);
    hasher.update_string(e.consumer);
    hasher.update_u64(
        e.stack == workflow::WorkflowSpec::Stack::kNvStream ? 0 : 1);
    hasher.update_u64(e.capacity);
  }
  return hasher.digest();
}

std::uint64_t hash_value(const DagSpec& dag) {
  Hasher64 hasher;
  hasher.update_u64(class_fingerprint(dag));
  hasher.update_string(dag.label);
  return hasher.digest();
}

bool operator==(const DagSpec& a, const DagSpec& b) {
  if (a.label != b.label || a.iterations != b.iterations ||
      a.verify_reads != b.verify_reads ||
      a.components.size() != b.components.size() ||
      a.edges.size() != b.edges.size()) {
    return false;
  }
  const auto ca = canonical_component_order(a);
  const auto cb = canonical_component_order(b);
  for (std::size_t i = 0; i < ca.size(); ++i) {
    if (!(a.components[ca[i]] == b.components[cb[i]])) return false;
  }
  const auto ea = canonical_edge_order(a);
  const auto eb = canonical_edge_order(b);
  for (std::size_t i = 0; i < ea.size(); ++i) {
    if (!(a.edges[ea[i]] == b.edges[eb[i]])) return false;
  }
  return true;
}

std::string serialize(const DagSpec& dag) {
  std::string out(kBanner);
  out += '\n';
  out += format("dag label=%s iterations=%u verify_reads=%d\n",
                dag.label.c_str(), dag.iterations, dag.verify_reads ? 1 : 0);
  for (std::size_t i : canonical_component_order(dag)) {
    const DagComponent& c = dag.components[i];
    out += format(
        "component name=%s ranks=%u object_size=%llu objects_per_rank=%llu "
        "compute_ns=%s analytics_ns_per_object=%s seed=%016llx\n",
        c.name.c_str(), c.ranks,
        static_cast<unsigned long long>(c.object_size),
        static_cast<unsigned long long>(c.objects_per_rank),
        render_f64(c.compute_ns).c_str(),
        render_f64(c.analytics_ns_per_object).c_str(),
        static_cast<unsigned long long>(c.seed));
  }
  for (std::size_t i : canonical_edge_order(dag)) {
    const DagEdge& e = dag.edges[i];
    out += format("edge producer=%s consumer=%s stack=%s capacity=%u\n",
                  e.producer.c_str(), e.consumer.c_str(), stack_name(e.stack),
                  e.capacity);
  }
  return out;
}

Expected<DagSpec> parse(std::string_view text) {
  std::vector<std::string> lines;
  {
    std::string current;
    for (char c : text) {
      if (c == '\n') {
        lines.push_back(std::move(current));
        current.clear();
      } else {
        current += c;
      }
    }
    if (!current.empty()) lines.push_back(std::move(current));
  }
  if (lines.empty() || trim(lines.front()) != kBanner) {
    return make_error(format("dag line 1: expected banner \"%.*s\"",
                             static_cast<int>(kBanner.size()), kBanner.data()));
  }

  DagSpec dag;
  bool saw_dag_line = false;
  for (std::size_t idx = 1; idx < lines.size(); ++idx) {
    const std::size_t line_no = idx + 1;
    const std::string_view line = trim(lines[idx]);
    if (line.empty() || line.front() == '#') continue;
    auto parsed = parse_directive(line, line_no);
    if (!parsed) return Unexpected{parsed.error()};
    DirectiveLine& directive = *parsed;

    if (directive.directive == "dag") {
      if (saw_dag_line) {
        return line_error(line_no, "duplicate \"dag\" directive");
      }
      saw_dag_line = true;
      auto label = take_key(directive, "label", line_no);
      if (!label) return Unexpected{label.error()};
      dag.label = *std::move(label);
      auto iterations = take_key(directive, "iterations", line_no);
      if (!iterations) return Unexpected{iterations.error()};
      if (!parse_u32(*iterations, &dag.iterations)) {
        return line_error(line_no,
                          format("bad iterations \"%s\"", iterations->c_str()));
      }
      auto verify = take_key(directive, "verify_reads", line_no);
      if (!verify) return Unexpected{verify.error()};
      if (*verify == "0") {
        dag.verify_reads = false;
      } else if (*verify == "1") {
        dag.verify_reads = true;
      } else {
        return line_error(line_no,
                          format("bad verify_reads \"%s\" (0 or 1)",
                                 verify->c_str()));
      }
      if (auto leftovers = reject_leftovers(directive, line_no); !leftovers) {
        return Unexpected{leftovers.error()};
      }
      continue;
    }

    if (!saw_dag_line) {
      return line_error(line_no, "\"dag\" directive must come first");
    }

    if (directive.directive == "component") {
      DagComponent c;
      auto name = take_key(directive, "name", line_no);
      if (!name) return Unexpected{name.error()};
      c.name = *std::move(name);
      auto ranks = take_key(directive, "ranks", line_no);
      if (!ranks) return Unexpected{ranks.error()};
      if (!parse_u32(*ranks, &c.ranks)) {
        return line_error(line_no, format("bad ranks \"%s\"", ranks->c_str()));
      }
      auto object_size = take_key(directive, "object_size", line_no);
      if (!object_size) return Unexpected{object_size.error()};
      if (!parse_u64(*object_size, &c.object_size)) {
        return line_error(
            line_no, format("bad object_size \"%s\"", object_size->c_str()));
      }
      auto objects = take_key(directive, "objects_per_rank", line_no);
      if (!objects) return Unexpected{objects.error()};
      if (!parse_u64(*objects, &c.objects_per_rank)) {
        return line_error(
            line_no, format("bad objects_per_rank \"%s\"", objects->c_str()));
      }
      auto compute = take_key(directive, "compute_ns", line_no);
      if (!compute) return Unexpected{compute.error()};
      if (!parse_f64(*compute, &c.compute_ns)) {
        return line_error(line_no,
                          format("bad compute_ns \"%s\"", compute->c_str()));
      }
      auto analytics = take_key(directive, "analytics_ns_per_object", line_no);
      if (!analytics) return Unexpected{analytics.error()};
      if (!parse_f64(*analytics, &c.analytics_ns_per_object)) {
        return line_error(
            line_no,
            format("bad analytics_ns_per_object \"%s\"", analytics->c_str()));
      }
      auto seed = take_key(directive, "seed", line_no);
      if (!seed) return Unexpected{seed.error()};
      if (!parse_hex64(*seed, &c.seed)) {
        return line_error(line_no,
                          format("bad seed \"%s\" (hex64)", seed->c_str()));
      }
      if (auto leftovers = reject_leftovers(directive, line_no); !leftovers) {
        return Unexpected{leftovers.error()};
      }
      dag.components.push_back(std::move(c));
      continue;
    }

    if (directive.directive == "edge") {
      DagEdge e;
      auto producer = take_key(directive, "producer", line_no);
      if (!producer) return Unexpected{producer.error()};
      e.producer = *std::move(producer);
      auto consumer = take_key(directive, "consumer", line_no);
      if (!consumer) return Unexpected{consumer.error()};
      e.consumer = *std::move(consumer);
      auto stack = take_key(directive, "stack", line_no);
      if (!stack) return Unexpected{stack.error()};
      if (*stack == "nvstream") {
        e.stack = workflow::WorkflowSpec::Stack::kNvStream;
      } else if (*stack == "nova") {
        e.stack = workflow::WorkflowSpec::Stack::kNova;
      } else {
        return line_error(
            line_no,
            format("bad stack \"%s\" (nvstream or nova)", stack->c_str()));
      }
      auto capacity = take_key(directive, "capacity", line_no);
      if (!capacity) return Unexpected{capacity.error()};
      if (!parse_u32(*capacity, &e.capacity)) {
        return line_error(line_no,
                          format("bad capacity \"%s\"", capacity->c_str()));
      }
      if (auto leftovers = reject_leftovers(directive, line_no); !leftovers) {
        return Unexpected{leftovers.error()};
      }
      dag.edges.push_back(std::move(e));
      continue;
    }

    return line_error(line_no, format("unknown directive \"%s\"",
                                      directive.directive.c_str()));
  }

  if (!saw_dag_line) {
    return make_error("dag file has no \"dag\" directive");
  }
  if (auto status = validate(dag); !status) {
    return Unexpected{status.error()};
  }
  return dag;
}

Expected<DagSpec> load_dag(const std::string& path) {
  std::ifstream input(path, std::ios::binary);
  if (!input) {
    return make_error("cannot open dag file: " + path);
  }
  std::ostringstream buffer;
  buffer << input.rdbuf();
  auto parsed = parse(buffer.str());
  if (!parsed) {
    return make_error(path + ": " + parsed.error().message);
  }
  return parsed;
}

Expected<workflow::WorkflowSpec> to_pair_workflow(const DagSpec& dag) {
  if (auto status = validate(dag); !status) {
    return Unexpected{status.error()};
  }
  if (dag.components.size() != 2 || dag.edges.size() != 1) {
    return make_error(
        format("dag \"%s\" is not a two-component chain (%zu components, "
               "%zu edges)",
               dag.label.c_str(), dag.components.size(), dag.edges.size()));
  }
  const DagEdge& edge = dag.edges.front();
  const DagComponent& producer =
      dag.components[*component_index(dag, edge.producer)];
  const DagComponent& consumer =
      dag.components[*component_index(dag, edge.consumer)];

  workflow::WorkflowSpec spec;
  spec.label = dag.label;
  spec.simulation = to_component(producer, 0).simulation;
  spec.analytics = to_component(consumer, 0).analytics;
  spec.ranks = producer.ranks;
  spec.iterations = dag.iterations;
  spec.stack = edge.stack;
  spec.channel_capacity = edge.capacity;
  spec.verify_reads = dag.verify_reads;
  return spec;
}

workflow::Component to_component(const DagComponent& component,
                                 topo::SocketId socket) {
  workloads::SyntheticSimulation::Params sim;
  sim.object_size = component.object_size;
  sim.objects_per_rank = component.objects_per_rank;
  sim.compute_ns = component.compute_ns;
  sim.seed = component.seed;
  sim.name = component.name;
  workloads::SyntheticAnalytics::Params analytics;
  analytics.compute_ns_per_object = component.analytics_ns_per_object;
  analytics.name = component.name;
  return {component.ranks, socket,
          std::make_shared<const workloads::SyntheticSimulation>(std::move(sim)),
          std::make_shared<const workloads::SyntheticAnalytics>(
              std::move(analytics)),
          component.name};
}

}  // namespace pmemflow::dag
