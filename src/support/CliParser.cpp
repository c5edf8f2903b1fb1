//===- support/CliParser.cpp - Tiny command-line parser -------------------===//
//
// Part of the SOLERO reproduction (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "support/CliParser.h"

#include "support/Assert.h"

#include <algorithm>
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

CliParser::CliParser(int Argc, char **Argv, std::vector<std::string> Known)
    : Known(std::move(Known)) {
  std::sort(this->Known.begin(), this->Known.end());
  for (int I = 1; I < Argc; ++I) {
    const char *Arg = Argv[I];
    if (std::strncmp(Arg, "--", 2) != 0) {
      std::fprintf(stderr, "error: stray argument '%s' (use --flag=value)\n",
                   Arg);
      std::exit(2);
    }
    std::string Body = Arg + 2;
    // Bare `--switch` is true; values need the unambiguous `--flag=value`.
    auto Eq = Body.find('=');
    std::string Name = Body.substr(0, Eq);
    if (!std::binary_search(this->Known.begin(), this->Known.end(), Name)) {
      std::fprintf(stderr, "error: unknown flag --%s\nusage: %s", Name.c_str(),
                   Argv[0]);
      for (const std::string &K : this->Known)
        std::fprintf(stderr, " [--%s]", K.c_str());
      std::fprintf(stderr, "\n");
      std::exit(2);
    }
    Flags[Name] = Eq == std::string::npos ? "" : Body.substr(Eq + 1);
  }
}

const std::string *CliParser::find(const std::string &Name) const {
  if (!std::binary_search(Known.begin(), Known.end(), Name)) {
    std::fprintf(stderr, "flag --%s is read but not declared\n", Name.c_str());
    SOLERO_UNREACHABLE("queried an undeclared command-line flag");
  }
  auto It = Flags.find(Name);
  return It == Flags.end() ? nullptr : &It->second;
}

bool CliParser::has(const std::string &Name) const {
  return find(Name) != nullptr;
}

std::string CliParser::getString(const std::string &Name,
                                 const std::string &Default) const {
  const std::string *V = find(Name);
  return V ? *V : Default;
}

int64_t CliParser::getInt(const std::string &Name, int64_t Default) const {
  const std::string *Text = find(Name);
  if (!Text || Text->empty())
    return Default;
  int64_t V = 0;
  if (!parseInt(*Text, V))
    badValue(Name, *Text, "an integer");
  return V;
}

double CliParser::getDouble(const std::string &Name, double Default) const {
  const std::string *Text = find(Name);
  if (!Text || Text->empty())
    return Default;
  char *End = nullptr;
  errno = 0;
  double V = std::strtod(Text->c_str(), &End);
  if (*End != '\0' || errno == ERANGE)
    badValue(Name, *Text, "a number");
  return V;
}

bool CliParser::getBool(const std::string &Name, bool Default) const {
  const std::string *V = find(Name);
  if (!V)
    return Default;
  return V->empty() || *V == "1" || *V == "true" || *V == "yes";
}

std::vector<int> CliParser::getIntList(const std::string &Name,
                                       std::vector<int> Default) const {
  const std::string *Text = find(Name);
  if (!Text || Text->empty())
    return Default;
  std::vector<int> Result;
  const std::string &S = *Text;
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
