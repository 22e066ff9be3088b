// perfbench — the repository's end-to-end benchmark program.
//
//   perfbench --workload <join-med|serve-sharded|ingest-wal> --seed <n>
//             --seconds <s> --trace <0|1> [--out_dir <dir>]
//             [--revision <git revision>]
//
// Generates the workload's inputs from the seed, drives them through
// the public Engine API for about --seconds, checks the outputs and
// prints two JSON lines: a report (environment block plus every figure
// under its own name) and, last, the result
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones; --trace 1 runs the traced variant
// and reports the per-layer ones instead. Exit code 0 means every call
// and every output check passed. WORKLOADS.md describes the workloads.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>

#include "bench.h"
#include "datagen/synonym_gen.h"
#include "datagen/taxonomy_gen.h"
#include "kernels/kernels.h"

namespace perfbench {

std::unique_ptr<World> MakeMedWorld(size_t num_strings, size_t num_pairs,
                                    uint64_t seed) {
  auto world = std::make_unique<World>();
  aujoin::TaxonomyGenOptions tax;
  tax.num_nodes = 2000;
  tax.seed = seed;
  world->taxonomy = aujoin::GenerateTaxonomy(tax, &world->vocab);
  aujoin::SynonymGenOptions syn;
  syn.num_rules = 3000;
  syn.seed = seed + 1;
  world->rules =
      aujoin::GenerateSynonyms(syn, world->taxonomy, &world->vocab);
  aujoin::CorpusProfile profile = aujoin::CorpusProfile::Med(num_strings);
  profile.seed += seed;
  aujoin::GroundTruthOptions truth;
  truth.num_pairs = num_pairs;
  truth.seed = seed + 2;
  aujoin::CorpusGenerator gen(&world->vocab, &world->taxonomy,
                              &world->rules);
  world->corpus = gen.Generate(profile, truth);
  return world;
}

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(samples.size())));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

// The first "key : value" line of /proc/cpuinfo whose key is `key`.
std::string CpuInfo(const std::string& key) {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string name = line.substr(0, colon);
    name.erase(name.find_last_not_of(" \t") + 1);
    if (name == key) {
      size_t begin = line.find_first_not_of(' ', colon + 1);
      return begin == std::string::npos ? "" : line.substr(begin);
    }
  }
  return "unknown";
}

std::string EnvironmentJson(const Args& args) {
  std::string out = "{";
  out += "\"cpu_model\": " + JsonString(CpuInfo("model name"));
  out += ", \"cpu_flags\": " + JsonString(CpuInfo("flags"));
  out += ", \"kernel\": " + JsonString(aujoin::ActiveKernel().name);
  out += ", \"compiler\": " + JsonString(PERFBENCH_COMPILER);
  out += ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE);
  out += ", \"git_revision\": " + JsonString(args.revision);
  out += ", \"nproc\": " +
         std::to_string(std::thread::hardware_concurrency());
  out += ", \"seed\": " + std::to_string(args.seed);
  out += ", \"seconds\": " + JsonNumber(args.seconds);
  out += "}";
  return out;
}

// The named values as a JSON object; a value that is not finite is
// written as 0 and counted in *non_finite.
std::string ValuesJson(const std::map<std::string, Result::Value>& values,
                       uint64_t* non_finite) {
  std::string out = "{";
  for (const auto& [name, v] : values) {
    double value = v.value;
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "%s is not finite\n", name.c_str());
      ++*non_finite;
      value = 0.0;
    }
    if (out.size() > 1) out += ", ";
    out += JsonString(name) + ": {\"value\": " + JsonNumber(value) +
           ", \"unit\": " + JsonString(v.unit) + "}";
  }
  return out + "}";
}

}  // namespace

void Result::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = Value{value, unit};
}

void Result::Detail(const std::string& name, double value,
                    const std::string& unit) {
  details_[name] = Value{value, unit};
}

bool Result::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::fprintf(stderr, "FAILED: %s\n", what.c_str());
  }
  return ok;
}

void Result::Count(uint64_t attempted, uint64_t failed,
                   const std::string& what) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed > 0) {
    std::fprintf(stderr, "FAILED: %llu of %llu %s\n",
                 static_cast<unsigned long long>(failed),
                 static_cast<unsigned long long>(attempted), what.c_str());
  }
}

int Result::Print(const Args& args) const {
  uint64_t ignored = 0, non_finite_metrics = 0;
  std::string details = ValuesJson(details_, &ignored);
  std::string metrics = ValuesJson(metrics_, &non_finite_metrics);
  const uint64_t failed = failed_ + non_finite_metrics;
  const uint64_t attempted = std::max<uint64_t>(attempted_, 1);
  std::printf("{\"report\": {\"workload\": %s, \"trace\": %s, "
              "\"environment\": %s, \"details\": %s}}\n",
              JsonString(args.workload).c_str(), args.trace ? "true" : "false",
              EnvironmentJson(args).c_str(), details.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.c_str());
  std::fflush(stdout);
  return failed == 0 ? 0 : 1;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--out_dir") {
      args.out_dir = value;
    } else if (flag == "--revision") {
      args.revision = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  if (args.seconds <= 0.0) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }
  Result result;
  if (args.workload == "join-med") {
    RunJoinMed(args, &result);
  } else if (args.workload == "serve-sharded") {
    RunServeSharded(args, &result);
  } else if (args.workload == "ingest-wal") {
    RunIngestWal(args, &result);
  } else {
    std::fprintf(stderr,
                 "unknown --workload '%s' (join-med, serve-sharded, "
                 "ingest-wal)\n",
                 args.workload.c_str());
    return 2;
  }
  return result.Print(args);
}
