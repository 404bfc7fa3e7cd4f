// Minimal command-line option parsing for the example applications.
// Supports --name=value / --name value / --flag forms plus -h/--help.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace syncon {

class CliParser {
 public:
  CliParser(std::string program, std::string description);

  /// Registers an option; `help` is shown by print_help().
  void add_option(std::string name, std::string default_value,
                  std::string help);
  void add_flag(std::string name, std::string help);

  /// Parses argv. Returns false (after printing help) when -h/--help was
  /// given or an unknown option was encountered.
  bool parse(int argc, const char* const* argv);

  std::string get(const std::string& name) const;
  std::int64_t get_int(const std::string& name) const;
  std::uint64_t get_uint(const std::string& name) const;
  double get_double(const std::string& name) const;
  bool get_flag(const std::string& name) const;

  /// Positional arguments (everything not starting with --).
  const std::vector<std::string>& positional() const { return positional_; }

  void print_help() const;

 private:
  struct Option {
    std::string default_value;
    std::string help;
    bool is_flag = false;
  };

  std::string program_;
  std::string description_;
  std::map<std::string, Option> options_;
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

/// Top-level error boundary of a command-line tool: returns body(argc,
/// argv). An exception escaping the body becomes one stderr line
/// "<program>: <message>" and exit status 2 instead of terminate().
int run_tool(const char* program, int argc, char** argv,
             int (*body)(int, char**));

}  // namespace syncon
