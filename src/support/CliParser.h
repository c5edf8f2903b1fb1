//===- support/CliParser.h - Tiny command-line parser -----------*- C++ -*-===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Minimal `--flag=value` / `--switch` parser shared by the bench and
/// example binaries. Values require the `=` form; a bare `--switch` is a
/// boolean true. Each program declares the flags it reads. A flag it did
/// not declare (including `--help`) prints usage and exits with status 2,
/// as do a positional argument and a numeric flag whose value does not
/// parse in full, so a typo never runs the default experiment.
///
//===----------------------------------------------------------------------===//

#ifndef SOLERO_SUPPORT_CLIPARSER_H
#define SOLERO_SUPPORT_CLIPARSER_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace solero {

/// Parses `argv` into a flag map against the program's declared flags.
class CliParser {
public:
  /// \p Known names every flag the program reads (without the `--`).
  /// Querying a name not in it is a programming error and aborts.
  CliParser(int Argc, char **Argv, std::vector<std::string> Known);

  /// True if `--Name` appeared (with or without a value).
  bool has(const std::string &Name) const;

  /// Value of `--Name`, or \p Default when absent.
  std::string getString(const std::string &Name,
                        const std::string &Default) const;
  int64_t getInt(const std::string &Name, int64_t Default) const;
  double getDouble(const std::string &Name, double Default) const;
  bool getBool(const std::string &Name, bool Default) const;

  /// Comma-separated integer list flag, e.g. `--threads=1,2,4,8,16`.
  std::vector<int> getIntList(const std::string &Name,
                              std::vector<int> Default) const;

private:
  /// The value of a declared flag, or null when it was not given.
  const std::string *find(const std::string &Name) const;

  std::vector<std::string> Known;
  std::map<std::string, std::string> Flags;
};

} // namespace solero

#endif // SOLERO_SUPPORT_CLIPARSER_H
