/**
 * @file
 * The wmrace CLI's option table.  Every command declares its operands,
 * its options (each with a kind and one help line) and the rules
 * between them; CommandLine turns argv into typed values.  Any error —
 * an unknown option, a missing or malformed value, a broken rule, a
 * wrong number of operands — exits 2 after naming the option and
 * printing the command's generated usage.
 */

#ifndef WMR_TOOLS_CLI_OPTIONS_HH
#define WMR_TOOLS_CLI_OPTIONS_HH

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace wmr::cli {

/** What an option's value must be. */
enum class Kind : std::uint8_t {
    Flag,     ///< takes no value
    Text,     ///< a non-empty string: a path or an address
    Number,   ///< an unsigned decimal integer in [min, max]
    Fraction, ///< a real number in [0, 1]
    Choice,   ///< one of `choices`, matched case-insensitively
};

/** One `--name` option of a command. */
struct Option
{
    std::string name{}; ///< without the leading "--"
    Kind kind = Kind::Flag;
    std::string arg{};  ///< the value's placeholder in the usage text
    std::string help{}; ///< one line of usage text
    std::uint64_t min = 0; ///< Number bounds
    std::uint64_t max = 0;
    std::vector<std::string> choices{}; ///< Choice names, as reported
};

Option flag(std::string name, std::string help);
Option text(std::string name, std::string arg, std::string help);
Option number(std::string name, std::uint64_t min, std::uint64_t max,
              std::string help);
Option fraction(std::string name, std::string help);
Option choice(std::string name, std::vector<std::string> choices,
              std::string help);

class CommandLine;

/** Two option names a rule relates. */
using OptionPair = std::pair<std::string, std::string>;

/** One wmrace command: its operands, options, rules and body. */
struct Command
{
    std::string name{};
    std::string operands{}; ///< usage synopsis, e.g. "<trace>"
    std::string summary{};  ///< one line for the command list
    std::size_t minOperands = 0;
    std::size_t maxOperands = 0;
    /** Parsing stops at the first operand: it and everything after
     *  it is an argv the command passes on (record's child). */
    bool tail = false;
    std::vector<Option> options{};
    std::vector<OptionPair> conflicts{}; ///< never given together
    std::vector<OptionPair> needs{}; ///< first given only with second
    int (*run)(const CommandLine &) = nullptr;
};

/** A parsed command line of one Command. */
class CommandLine
{
  public:
    /** Parse @p argv (the arguments after the command name); exits 2
     *  on any error. */
    CommandLine(const Command &cmd, int argc, char **argv);

    const std::vector<std::string> &operands() const { return operands_; }

    /** For a tail command: argv from its first operand on. */
    char **tail() const { return tail_; }

    /** @return whether option @p name was given. */
    bool has(std::string_view name) const;

    /** @return Text option @p name, or "" when not given. */
    const std::string &text(std::string_view name) const;

    /** @return Choice option @p name as spelled in its choice list,
     *  or "" when not given. */
    const std::string &choice(std::string_view name) const;

    /** @return Fraction option @p name, or @p dflt when not given. */
    double fraction(std::string_view name, double dflt) const;

    /** @return Number option @p name, or @p dflt when not given.
     *  The option's declared bound must fit @p T. */
    template <typename T>
    T
    number(std::string_view name, T dflt) const
    {
        const Value &v =
            value(name, Kind::Number, std::numeric_limits<T>::max());
        return v.given ? static_cast<T>(v.number) : dflt;
    }

    /** Report a usage error the table cannot express: print
     *  "<command>: <message>" and the usage, then exit 2. */
    [[noreturn]] void fail(const char *fmt, ...) const
        __attribute__((format(printf, 2, 3)));

  private:
    struct Value
    {
        bool given = false;
        std::string text;        ///< Text, or the Choice's spelling
        std::uint64_t number = 0; ///< Number
        double fraction = 0;     ///< Fraction
    };

    /** @return the index of option @p name; panics when the command
     *  does not declare it. */
    std::size_t index(std::string_view name) const;

    /** @return the value of declared option @p name; panics when the
     *  command does not declare it as @p kind, or when its bound
     *  exceeds @p fieldMax. */
    const Value &
    value(std::string_view name, Kind kind,
          std::uint64_t fieldMax =
              std::numeric_limits<std::uint64_t>::max()) const;

    void parseValue(const Option &opt, Value &v) const;

    const Command &cmd_;
    std::vector<std::string> operands_;
    char **tail_ = nullptr;
    std::vector<Value> values_; ///< parallel to cmd_.options
};

} // namespace wmr::cli

#endif // WMR_TOOLS_CLI_OPTIONS_HH
