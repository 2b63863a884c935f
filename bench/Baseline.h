//===- bench/Baseline.h - Committed bench baseline rows ---------*- C++ -*-===//
///
/// \file
/// A committed baseline (bench/baseline/*.json) holds the machine-
/// independent part of a bench's rows, one JSON object per line and each
/// tagged with its set (`"smoke"` for MUTK_BENCH_SMOKE runs, `"full"`):
///
///     {"bench":"NAME","rows":[
///     {"set":"smoke",...},
///     {"set":"full",...}
///     ]}
///
/// A bench formats its rows the same way, in run order, and compares them
/// as strings, so any difference, missing or extra row fails the run. A
/// change that is *meant* to alter the rows regenerates its set with
/// `--update-baseline` and commits the file together with the change.
///
//===----------------------------------------------------------------------===//

#ifndef MUTK_BENCH_BASELINE_H
#define MUTK_BENCH_BASELINE_H

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

namespace bench {

/// The set a run compares against: `"smoke"` under MUTK_BENCH_SMOKE.
inline const char *baselineSet() {
  return std::getenv("MUTK_BENCH_SMOKE") != nullptr ? "smoke" : "full";
}

/// The row lines of \p Path, trailing commas removed: \p Set's rows, or
/// with \p Keep false every other set's rows.
inline std::vector<std::string> readBaselineRows(const char *Path,
                                                 const char *Set,
                                                 bool Keep = true) {
  const std::string Prefix = std::string("{\"set\":\"") + Set + "\"";
  std::vector<std::string> Rows;
  std::ifstream In(Path);
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.rfind("{\"set\":", 0) != 0 ||
        (Line.rfind(Prefix, 0) == 0) != Keep)
      continue;
    if (Line.back() == ',')
      Line.pop_back();
    Rows.push_back(Line);
  }
  return Rows;
}

/// With \p Update, replaces \p Set's rows of the baseline \p Path of bench
/// \p Bench with \p Rows and keeps the other sets' rows; otherwise
/// compares \p Rows, in run order, with the committed ones and prints
/// each difference. \returns false on any difference or write failure.
inline bool checkBaseline(const char *Path, const char *Bench,
                          const char *Set,
                          const std::vector<std::string> &Rows, bool Update) {
  if (Update) {
    std::vector<std::string> Lines = readBaselineRows(Path, Set, false);
    Lines.insert(Lines.end(), Rows.begin(), Rows.end());
    std::ofstream Out(Path, std::ios::trunc);
    Out << "{\"bench\":\"" << Bench << "\",\"rows\":[\n";
    for (std::size_t I = 0; I < Lines.size(); ++I)
      Out << Lines[I] << (I + 1 < Lines.size() ? ",\n" : "\n");
    Out << "]}\n";
    if (!Out) {
      std::printf("  !! could not write %s\n", Path);
      return false;
    }
    std::printf("  updated the %s rows of %s\n", Set, Path);
    return true;
  }
  const std::vector<std::string> Expected = readBaselineRows(Path, Set);
  int Mismatches = 0;
  for (std::size_t I = 0; I < std::max(Expected.size(), Rows.size()); ++I) {
    const std::string Got = I < Rows.size() ? Rows[I] : "(no row)";
    const std::string Want = I < Expected.size() ? Expected[I] : "(no row)";
    if (Got == Want)
      continue;
    std::printf("  !! baseline row %zu differs\n     got      %s\n"
                "     expected %s\n",
                I, Got.c_str(), Want.c_str());
    ++Mismatches;
  }
  if (Mismatches > 0) {
    std::printf("  !! %d mismatches against %s\n", Mismatches, Path);
    return false;
  }
  std::printf("  all %zu rows match the committed %s baseline\n", Rows.size(),
              Set);
  return true;
}

/// True when the arguments left after `benchmark::Initialize` are exactly
/// `--update-baseline`; exits with status 2 on any other argument.
inline bool updateBaselineRequested(int Argc, char **Argv) {
  bool Update = false;
  for (int I = 1; I < Argc; ++I) {
    if (std::strcmp(Argv[I], "--update-baseline") != 0) {
      std::fprintf(stderr, "unknown argument: %s\n", Argv[I]);
      std::exit(2);
    }
    Update = true;
  }
  return Update;
}

} // namespace bench

#endif // MUTK_BENCH_BASELINE_H
