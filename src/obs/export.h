// Exporters for a cluster's collected traces.
//
//  * chrome_trace_json() — Chrome trace_event JSON (the object form with a
//    "traceEvents" array).  Load it in Perfetto (ui.perfetto.dev) or
//    chrome://tracing: each node renders as a process with one lane, spans
//    as "X" slices in virtual microseconds, and per-phase counter
//    snapshots as "C" counter tracks.
//  * run_report_json() — the machine-readable RunReport: config metadata,
//    makespan, and per node the finished spans, final counters and phase
//    snapshots.  CI uploads one per run; tests and the tools/ scripts can
//    re-check the paper's I/O bounds from it alone.
//
// Both serialisers iterate nodes in rank order and records in recorded
// order, and print doubles with a fixed format, so two runs that traced
// identically serialise byte-identically — the exporter cannot mask or
// manufacture nondeterminism.
#pragma once

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "base/types.h"
#include "obs/trace.h"

namespace paladin::obs {

/// Cluster-level container the exporters consume: the harvested per-node
/// traces plus free-form run metadata (algorithm, perf vector, seed...).
struct ClusterTrace {
  std::vector<std::pair<std::string, std::string>> meta;
  double makespan = 0.0;
  std::vector<NodeTrace> nodes;

  void set_meta(std::string key, std::string value) {
    meta.emplace_back(std::move(key), std::move(value));
  }
};

namespace detail {

inline void append_escaped(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

inline void append_str(std::string& out, std::string_view s) {
  out += '"';
  append_escaped(out, s);
  out += '"';
}

/// Virtual seconds → microseconds with fixed sub-µs precision; the fixed
/// format keeps serialisation deterministic for identical doubles.
inline void append_us(std::string& out, double seconds) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6f", seconds * 1e6);
  out += buf;
}

inline void append_seconds(std::string& out, double seconds) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9f", seconds);
  out += buf;
}

inline void append_args(std::string& out,
                        const std::vector<std::pair<std::string, u64>>& kv) {
  out += '{';
  bool first = true;
  for (const auto& [k, v] : kv) {
    if (!first) out += ',';
    first = false;
    append_str(out, k);
    out += ':';
    out += std::to_string(v);
  }
  out += '}';
}

}  // namespace detail

inline std::string chrome_trace_json(const ClusterTrace& trace) {
  using detail::append_args;
  using detail::append_str;
  using detail::append_us;
  std::string out;
  out.reserve(1 << 16);
  out += "{\"displayTimeUnit\":\"ms\",\"otherData\":{";
  bool first = true;
  for (const auto& [k, v] : trace.meta) {
    if (!first) out += ',';
    first = false;
    append_str(out, k);
    out += ':';
    append_str(out, v);
  }
  out += "},\"traceEvents\":[\n";

  bool first_event = true;
  auto event = [&](const std::string& body) {
    if (!first_event) out += ",\n";
    first_event = false;
    out += body;
  };

  for (const NodeTrace& node : trace.nodes) {
    const std::string pid = std::to_string(node.rank);
    // Process naming metadata; the node's spans share one lane.
    event("{\"ph\":\"M\",\"pid\":" + pid +
          ",\"name\":\"process_name\",\"args\":{\"name\":\"node" + pid +
          "\"}}");
    for (const SpanRecord& s : node.spans) {
      std::string e =
          "{\"ph\":\"X\",\"pid\":" + pid + ",\"tid\":0,\"name\":";
      append_str(e, s.name);
      e += ",\"cat\":";
      append_str(e, s.category);
      e += ",\"ts\":";
      append_us(e, s.begin);
      e += ",\"dur\":";
      append_us(e, s.end - s.begin);
      e += ",\"args\":";
      append_args(e, s.args);
      e += '}';
      event(e);
    }
    // Phase snapshots as counter events: one lane per counter name.
    for (const CounterSnapshot& snap : node.snapshots) {
      for (const auto& [name, value] : snap.values) {
        std::string e = "{\"ph\":\"C\",\"pid\":" + pid + ",\"name\":";
        append_str(e, name);
        e += ",\"ts\":";
        append_us(e, snap.at);
        e += ",\"args\":{\"value\":" + std::to_string(value) + "}}";
        event(e);
      }
    }
  }
  out += "\n]}\n";
  return out;
}

inline std::string run_report_json(const ClusterTrace& trace) {
  using detail::append_args;
  using detail::append_seconds;
  using detail::append_str;
  std::string out;
  out.reserve(1 << 16);
  out += "{\"schema\":\"paladin.run_report.v1\",\"meta\":{";
  bool first = true;
  for (const auto& [k, v] : trace.meta) {
    if (!first) out += ',';
    first = false;
    append_str(out, k);
    out += ':';
    append_str(out, v);
  }
  out += "},\"makespan_s\":";
  append_seconds(out, trace.makespan);
  out += ",\"nodes\":[\n";
  for (std::size_t n = 0; n < trace.nodes.size(); ++n) {
    const NodeTrace& node = trace.nodes[n];
    if (n) out += ",\n";
    out += "{\"rank\":" + std::to_string(node.rank) + ",\"counters\":";
    append_args(out, node.counters);
    out += ",\"spans\":[";
    for (std::size_t i = 0; i < node.spans.size(); ++i) {
      const SpanRecord& s = node.spans[i];
      if (i) out += ',';
      out += "{\"name\":";
      append_str(out, s.name);
      out += ",\"cat\":";
      append_str(out, s.category);
      out += ",\"depth\":" + std::to_string(s.depth) + ",\"begin_s\":";
      append_seconds(out, s.begin);
      out += ",\"end_s\":";
      append_seconds(out, s.end);
      out += ",\"args\":";
      append_args(out, s.args);
      out += '}';
    }
    out += "],\"snapshots\":[";
    for (std::size_t i = 0; i < node.snapshots.size(); ++i) {
      const CounterSnapshot& s = node.snapshots[i];
      if (i) out += ',';
      out += "{\"label\":";
      append_str(out, s.label);
      out += ",\"at_s\":";
      append_seconds(out, s.at);
      out += ",\"counters\":";
      append_args(out, s.values);
      out += '}';
    }
    out += "]}";
  }
  out += "\n]}\n";
  return out;
}

/// Writes `content` to `path`, creating parent directories.  Returns false
/// (rather than throwing) on failure so an --obs-out typo cannot kill a
/// finished sort.
inline bool write_text_file(const std::filesystem::path& path,
                            const std::string& content) {
  std::error_code ec;
  if (path.has_parent_path()) {
    std::filesystem::create_directories(path.parent_path(), ec);
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  return static_cast<bool>(out);
}

}  // namespace paladin::obs
