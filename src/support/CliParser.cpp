//===- support/CliParser.cpp - Tiny command-line parser -------------------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "support/CliParser.h"

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>

using namespace solero;

namespace {

/// Reports a malformed value of `--Name` and exits with status 2.
[[noreturn]] void badValue(const std::string &Name, const std::string &Value,
                           const char *Kind) {
  std::fprintf(stderr, "error: --%s=%s: expected %s\n", Name.c_str(),
               Value.c_str(), Kind);
  std::exit(2);
}

/// Parses the whole of \p Text as an integer in [Lo, Hi]: decimal, or
/// hexadecimal with a 0x prefix (bit masks such as --chaos-kinds).
bool parseInt(const std::string &Text, int64_t &Out, int64_t Lo = INT64_MIN,
              int64_t Hi = INT64_MAX) {
  const bool Hex = Text.size() > 2 && Text[0] == '0' &&
                   (Text[1] == 'x' || Text[1] == 'X');
  char *End = nullptr;
  errno = 0;
  long long V = std::strtoll(Text.c_str(), &End, Hex ? 16 : 10);
  if (Text.empty() || *End != '\0' || errno == ERANGE || V < Lo || V > Hi)
    return false;
  Out = V;
  return true;
}

} // namespace

CliParser::CliParser(int Argc, char **Argv) {
  for (int I = 1; I < Argc; ++I) {
    const char *Arg = Argv[I];
    if (std::strncmp(Arg, "--", 2) != 0) {
      std::fprintf(stderr, "error: stray argument '%s' (use --flag=value)\n",
                   Arg);
      std::exit(2);
    }
    std::string Body = Arg + 2;
    auto Eq = Body.find('=');
    if (Eq != std::string::npos) {
      Flags[Body.substr(0, Eq)] = Body.substr(Eq + 1);
      continue;
    }
    // Bare `--switch`. Values must use the unambiguous `--flag=value` form.
    Flags[Body] = "";
  }
}

bool CliParser::has(const std::string &Name) const {
  return Flags.count(Name) != 0;
}

std::string CliParser::getString(const std::string &Name,
                                 const std::string &Default) const {
  auto It = Flags.find(Name);
  return It == Flags.end() ? Default : It->second;
}

int64_t CliParser::getInt(const std::string &Name, int64_t Default) const {
  auto It = Flags.find(Name);
  if (It == Flags.end() || It->second.empty())
    return Default;
  int64_t V = 0;
  if (!parseInt(It->second, V))
    badValue(Name, It->second, "an integer");
  return V;
}

double CliParser::getDouble(const std::string &Name, double Default) const {
  auto It = Flags.find(Name);
  if (It == Flags.end() || It->second.empty())
    return Default;
  char *End = nullptr;
  errno = 0;
  double V = std::strtod(It->second.c_str(), &End);
  if (*End != '\0' || errno == ERANGE)
    badValue(Name, It->second, "a number");
  return V;
}

bool CliParser::getBool(const std::string &Name, bool Default) const {
  auto It = Flags.find(Name);
  if (It == Flags.end())
    return Default;
  if (It->second.empty() || It->second == "1" || It->second == "true" ||
      It->second == "yes")
    return true;
  return false;
}

std::vector<int> CliParser::getIntList(const std::string &Name,
                                       std::vector<int> Default) const {
  auto It = Flags.find(Name);
  if (It == Flags.end() || It->second.empty())
    return Default;
  std::vector<int> Result;
  const std::string &S = It->second;
  std::size_t Pos = 0;
  while (Pos < S.size()) {
    std::size_t Comma = S.find(',', Pos);
    if (Comma == std::string::npos)
      Comma = S.size();
    int64_t V = 0;
    if (!parseInt(S.substr(Pos, Comma - Pos), V, INT_MIN, INT_MAX))
      badValue(Name, S, "a comma-separated list of integers");
    Result.push_back(static_cast<int>(V));
    Pos = Comma + 1;
  }
  return Result;
}
