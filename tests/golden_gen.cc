// Regenerates the golden-trace corpus. Run via tools/regolden.sh, which
// rebuilds this binary and rewrites tests/golden/*.json in place; review
// the diff like any other source change.
//
// Usage: golden_gen [--format=json|nbt] <output-dir> [scenario...]
//   --format=json (default) writes <name>.json, the checked-in corpus
//   --format=nbt writes <name>.nbt, the binary encoding of the same run
// `--help` prints the usage and exits 0. Any other argument starting with
// `-`, a bad --format, or a scenario that does not exist is a hard error
// (exit 2) before any scenario runs — a typo must not silently regenerate
// nothing, nor be taken for the output directory.
#include <cstdio>
#include <cstring>
// nymlint:allow-file(store-raw-io): writes the human-reviewable golden JSON
// corpus; see golden_trace_test.cc for why it stays outside the record log.
#include <fstream>
#include <string>
#include <vector>

#include "tests/golden_scenarios.h"

namespace {

constexpr char kUsage[] = "usage: golden_gen [--format=json|nbt] <output-dir> [scenario...]\n";

bool WriteFileOrComplain(const std::string& path, const char* data, size_t size) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "golden_gen: cannot write %s\n", path.c_str());
    return false;
  }
  out.write(data, static_cast<std::streamsize>(size));
  out.flush();
  if (!out) {
    std::fprintf(stderr, "golden_gen: write failed for %s\n", path.c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string format = "json";
  std::string out_dir;
  std::vector<std::string> wanted;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--help") == 0) {
      std::fputs(kUsage, stdout);
      return 0;
    }
    if (std::strncmp(argv[i], "--format=", 9) == 0) {
      format = argv[i] + 9;
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "golden_gen: unknown argument \"%s\"\n%s", argv[i], kUsage);
      return 2;
    } else if (out_dir.empty()) {
      out_dir = argv[i];
    } else {
      wanted.push_back(argv[i]);
    }
  }
  if (format != "json" && format != "nbt") {
    std::fprintf(stderr, "golden_gen: --format must be json or nbt, got \"%s\"\n%s",
                 format.c_str(), kUsage);
    return 2;
  }
  if (out_dir.empty()) {
    std::fputs(kUsage, stderr);
    return 2;
  }
  for (const std::string& name : wanted) {
    bool known = false;
    for (const nymix::GoldenScenario& scenario : nymix::GoldenScenarios()) {
      known = known || name == scenario.name;
    }
    if (!known) {
      std::fprintf(stderr, "golden_gen: unknown scenario \"%s\"; the library has:\n",
                   name.c_str());
      for (const nymix::GoldenScenario& scenario : nymix::GoldenScenarios()) {
        std::fprintf(stderr, "  %s\n", scenario.name);
      }
      return 2;
    }
  }
  for (const nymix::GoldenScenario& scenario : nymix::GoldenScenarios()) {
    if (!wanted.empty()) {
      bool selected = false;
      for (const std::string& name : wanted) {
        selected = selected || name == scenario.name;
      }
      if (!selected) {
        continue;
      }
    }
    std::string path = out_dir + "/" + scenario.name + "." + format;
    bool ok;
    if (format == "nbt") {
      nymix::Bytes data = scenario.generate_nbt();
      ok = WriteFileOrComplain(path, reinterpret_cast<const char*>(data.data()), data.size());
    } else {
      std::string data = scenario.generate();
      ok = WriteFileOrComplain(path, data.data(), data.size());
    }
    if (!ok) {
      return 1;
    }
    std::printf("golden_gen: wrote %s\n", path.c_str());
  }
  return 0;
}
