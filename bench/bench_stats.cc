#include "bench/bench_stats.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "src/net/simulation.h"
#include "src/obs/json.h"
#include "src/store/file_io.h"
#include "src/store/nbt.h"

namespace nymix {

namespace {

// "usage: <program> [row]", one row per line, aligned under the first.
std::string UsageText(std::string_view program, const std::vector<Flag>& flags) {
  std::string out = "usage: " + std::string(program);
  const std::string separator = "\n" + std::string(out.size(), ' ');
  for (size_t i = 0; i < flags.size(); ++i) {
    out += (i == 0 ? " [" : separator + " [") + flags[i].usage + "]";
  }
  return out + "\n";
}

// Whole-string decimal parse: no leading "+" or space, no trailing text.
template <typename T>
bool ParseWhole(std::string_view text, T& out) {
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc() && ptr == end;
}

}  // namespace

int ParseFlags(std::string_view program, const std::vector<Flag>& flags, int argc, char** argv) {
  const std::string bin(program);
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--help") {
      std::fputs(UsageText(program, flags).c_str(), stdout);
      return 0;
    }
    size_t eq = arg.find('=');
    std::string_view name = arg.substr(0, eq);
    auto flag = std::find_if(flags.begin(), flags.end(),
                             [name](const Flag& row) { return row.name == name; });
    if (flag == flags.end()) {
      std::fprintf(stderr, "%s: unknown argument \"%s\"\n", bin.c_str(), argv[i]);
      std::fputs(UsageText(program, flags).c_str(), stderr);
      return 2;
    }
    bool takes_value = flag->kind == Flag::kValue || flag->kind == Flag::kChoice;
    bool has_value = eq != std::string_view::npos;
    std::string_view value = has_value ? arg.substr(eq + 1) : std::string_view();
    std::string shown(arg);
    if (takes_value && !has_value && i + 1 < argc) {
      value = argv[++i];
      has_value = true;
      shown += " " + std::string(value);
    }
    bool ok = has_value ? flag->kind != Flag::kSwitch && !value.empty() : !takes_value;
    if (ok && flag->set(value)) {
      continue;
    }
    if (flag->kind == Flag::kChoice && has_value) {
      std::fprintf(stderr, "%s: unknown %s \"%s\"\n", bin.c_str(), flag->name.c_str(),
                   std::string(value).c_str());
    } else {
      std::fprintf(stderr, "%s: bad value \"%s\"\n", bin.c_str(), shown.c_str());
    }
    std::fprintf(stderr, "usage: %s [%s]\n", bin.c_str(), flag->usage.c_str());
    return 2;
  }
  return -1;
}

FlagSetter SetText(std::string& out) {
  return [&out](std::string_view value) {
    out = std::string(value);
    return true;
  };
}

FlagSetter SetUint64(uint64_t& out) {
  return [&out](std::string_view value) { return ParseWhole(value, out); };
}

FlagSetter SetPositive(int& out) {
  return [&out](std::string_view value) { return ParseWhole(value, out) && out >= 1; };
}

FlagSetter SetPositiveList(std::vector<int>& out) {
  return [&out](std::string_view value) {
    out.clear();
    while (true) {
      size_t comma = value.find(',');
      int item = 0;
      if (!ParseWhole(value.substr(0, comma), item) || item < 1) {
        return false;
      }
      out.push_back(item);
      if (comma == std::string_view::npos) {
        return true;
      }
      value.remove_prefix(comma + 1);
    }
  };
}

FlagSetter SetOneOf(std::string& out, std::vector<std::string_view> choices) {
  return [&out, choices = std::move(choices)](std::string_view value) {
    out = std::string(value);
    return std::find(choices.begin(), choices.end(), value) != choices.end();
  };
}

void JsonWriter::BeforeValue() {
  if (pending_key_) {
    pending_key_ = false;
    return;
  }
  if (stack_.empty()) {
    return;  // document root
  }
  Frame& frame = stack_.back();
  if (frame.compact) {
    if (!frame.first) {
      out_ << ", ";
    }
  } else {
    out_ << (frame.first ? "\n" : ",\n") << indent();
  }
  frame.first = false;
}

void JsonWriter::BeginObject(Style style) {
  BeforeValue();
  Frame frame;
  frame.compact = style == kCompact || InCompact();
  out_ << '{';
  stack_.push_back(frame);
}

void JsonWriter::EndObject() {
  Frame frame = stack_.back();
  stack_.pop_back();
  if (!frame.compact && !frame.first) {
    out_ << '\n' << indent();
  }
  out_ << '}';
}

void JsonWriter::BeginArray(Style style) {
  BeforeValue();
  Frame frame;
  frame.array = true;
  frame.compact = style == kCompact || InCompact();
  out_ << '[';
  stack_.push_back(frame);
}

void JsonWriter::EndArray() {
  Frame frame = stack_.back();
  stack_.pop_back();
  if (!frame.compact && !frame.first) {
    out_ << '\n' << indent();
  }
  out_ << ']';
}

void JsonWriter::Key(std::string_view name) {
  BeforeValue();
  out_ << '"' << JsonEscape(name) << "\": ";
  pending_key_ = true;
}

void JsonWriter::String(std::string_view value) {
  BeforeValue();
  out_ << '"' << JsonEscape(value) << '"';
}

void JsonWriter::Number(double value) {
  BeforeValue();
  out_ << JsonNumber(value);
}

void JsonWriter::Number(double value, int precision) {
  BeforeValue();
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  out_ << buf;
}

void JsonWriter::Number(uint64_t value) {
  BeforeValue();
  out_ << JsonNumber(value);
}

void JsonWriter::Number(int64_t value) {
  BeforeValue();
  out_ << JsonNumber(value);
}

void JsonWriter::Bool(bool value) {
  BeforeValue();
  out_ << (value ? "true" : "false");
}

std::ostream& JsonWriter::RawValue() {
  BeforeValue();
  return out_;
}

BenchStats::BenchStats(std::string bench_name, int argc, char** argv, std::vector<Flag> flags)
    : bench_name_(std::move(bench_name)) {
  flags.push_back({"--stats-out", "--stats-out=PATH", SetText(stats_path_)});
  flags.push_back({"--trace-out", "--trace-out=PATH", SetText(trace_path_)});
  flags.push_back({"--trace-format", "--trace-format=json|nbt",
                   SetOneOf(trace_format_, {"json", "nbt"}), Flag::kChoice});
  if (int rc = ParseFlags(bench_name_, flags, argc, argv); rc >= 0) {
    std::exit(rc);
  }
  if (!stats_path_.empty()) {
    obs_.metrics.set_enabled(true);
  }
  if (!trace_path_.empty()) {
    obs_.trace.set_enabled(true);
  }
}

void BenchStats::Attach(Simulation& sim) {
  if (obs_.trace.event_count() > 0) {
    obs_.trace.NextTimeline();
  }
  sim.loop().set_observability(&obs_);
}

void BenchStats::Set(const std::string& name, double value) { values_[name] = value; }

void BenchStats::SetLabel(const std::string& name, const std::string& value) {
  labels_[name] = value;
}

int BenchStats::Finish() {
  int rc = 0;
  if (!stats_path_.empty()) {
    std::ofstream out(stats_path_, std::ios::binary | std::ios::trunc);
    if (out) {
      JsonWriter writer(out);
      writer.BeginObject();
      writer.Key("bench");
      writer.String(bench_name_);
      if (!labels_.empty()) {
        writer.Key("labels");
        writer.BeginObject();
        for (const auto& [name, value] : labels_) {
          writer.Key(name);
          writer.String(value);
        }
        writer.EndObject();
      }
      if (!values_.empty()) {
        writer.Key("values");
        writer.BeginObject();
        for (const auto& [name, value] : values_) {
          writer.Key(name);
          writer.Number(value);
        }
        writer.EndObject();
      }
      writer.Key("metrics");
      obs_.metrics.WriteJson(writer.RawValue(), writer.indent());
      writer.EndObject();
      out << "\n";
      out.flush();
      if (!out) {
        std::fprintf(stderr, "bench_stats: write failed: %s\n", stats_path_.c_str());
        rc = 1;
      }
    } else {
      std::fprintf(stderr, "bench_stats: cannot open %s\n", stats_path_.c_str());
      rc = 1;
    }
  }
  if (!trace_path_.empty()) {
    if (trace_format_ == "nbt") {
      Status written = WriteFileBytes(trace_path_, EncodeNbt(&obs_.trace, nullptr));
      if (!written.ok()) {
        std::fprintf(stderr, "bench_stats: cannot write %s: %s\n", trace_path_.c_str(),
                     written.ToString().c_str());
        rc = 1;
      }
    } else if (!obs_.trace.WriteChromeJsonFile(trace_path_)) {
      std::fprintf(stderr, "bench_stats: cannot write %s\n", trace_path_.c_str());
      rc = 1;
    }
  }
  return rc;
}

}  // namespace nymix
