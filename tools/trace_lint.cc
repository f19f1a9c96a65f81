/**
 * @file
 * Validator for the --chrome-trace output: checks that the file is
 * well-formed JSON (a strict recursive-descent parse, no external
 * dependency) and that it has the Chrome trace_event shape — a
 * top-level object whose "traceEvents" member is an array of objects
 * each carrying the required "name"/"ph"/"ts"/"pid"/"tid" keys.
 *
 *     trace_lint trace.json
 *
 * Exits 0 when the file would load in chrome://tracing / Perfetto,
 * 1 with a diagnostic otherwise. Used by the trace_smoke ctest and the
 * specbench tests.
 */

#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace
{

struct Parser
{
    const std::string &text;
    std::size_t pos = 0;
    std::string error;

    explicit Parser(const std::string &t) : text(t) {}

    bool
    fail(const std::string &msg)
    {
        std::size_t line = 1, col = 1;
        for (std::size_t i = 0; i < pos && i < text.size(); ++i) {
            if (text[i] == '\n') {
                ++line;
                col = 1;
            } else {
                ++col;
            }
        }
        std::ostringstream os;
        os << msg << " at line " << line << ", column " << col;
        error = os.str();
        return false;
    }

    void
    skipWs()
    {
        while (pos < text.size() &&
               std::isspace(static_cast<unsigned char>(text[pos])))
            ++pos;
    }

    bool
    consume(char c)
    {
        skipWs();
        if (pos >= text.size() || text[pos] != c)
            return fail(std::string("expected '") + c + "'");
        ++pos;
        return true;
    }

    bool
    parseString()
    {
        skipWs();
        if (pos >= text.size() || text[pos] != '"')
            return fail("expected string");
        ++pos;
        while (pos < text.size()) {
            char c = text[pos];
            if (c == '"') {
                ++pos;
                return true;
            }
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("unescaped control character in string");
            if (c == '\\') {
                ++pos;
                if (pos >= text.size())
                    return fail("truncated escape");
                char e = text[pos];
                if (e == 'u') {
                    for (int i = 0; i < 4; ++i) {
                        ++pos;
                        if (pos >= text.size() ||
                            !std::isxdigit(static_cast<unsigned char>(
                                text[pos])))
                            return fail("bad \\u escape");
                    }
                } else if (!std::strchr("\"\\/bfnrt", e)) {
                    return fail("bad escape character");
                }
            }
            ++pos;
        }
        return fail("unterminated string");
    }

    bool
    parseNumber()
    {
        skipWs();
        std::size_t start = pos;
        if (pos < text.size() && text[pos] == '-')
            ++pos;
        if (pos >= text.size() ||
            !std::isdigit(static_cast<unsigned char>(text[pos])))
            return fail("expected digit");
        while (pos < text.size() &&
               std::isdigit(static_cast<unsigned char>(text[pos])))
            ++pos;
        if (pos < text.size() && text[pos] == '.') {
            ++pos;
            if (pos >= text.size() ||
                !std::isdigit(static_cast<unsigned char>(text[pos])))
                return fail("expected fraction digits");
            while (pos < text.size() &&
                   std::isdigit(static_cast<unsigned char>(text[pos])))
                ++pos;
        }
        if (pos < text.size() &&
            (text[pos] == 'e' || text[pos] == 'E')) {
            ++pos;
            if (pos < text.size() &&
                (text[pos] == '+' || text[pos] == '-'))
                ++pos;
            if (pos >= text.size() ||
                !std::isdigit(static_cast<unsigned char>(text[pos])))
                return fail("expected exponent digits");
            while (pos < text.size() &&
                   std::isdigit(static_cast<unsigned char>(text[pos])))
                ++pos;
        }
        return pos > start;
    }

    bool
    parseLiteral(const char *word)
    {
        skipWs();
        std::size_t n = std::strlen(word);
        if (text.compare(pos, n, word) != 0)
            return fail("bad literal");
        pos += n;
        return true;
    }

    bool
    parseValue()
    {
        skipWs();
        if (pos >= text.size())
            return fail("unexpected end of input");
        switch (text[pos]) {
          case '{':
            return parseObject(nullptr);
          case '[':
            return parseArray();
          case '"':
            return parseString();
          case 't':
            return parseLiteral("true");
          case 'f':
            return parseLiteral("false");
          case 'n':
            return parseLiteral("null");
          default:
            return parseNumber();
        }
    }

    /** Parse an object; when kv is non-null, collect each key and
     *  the raw text of its value. */
    bool
    parseObject(std::vector<std::pair<std::string, std::string>> *kv)
    {
        if (!consume('{'))
            return false;
        skipWs();
        if (pos < text.size() && text[pos] == '}') {
            ++pos;
            return true;
        }
        for (;;) {
            skipWs();
            std::size_t key_start = pos;
            if (!parseString())
                return false;
            std::string key;
            if (kv) {
                // The raw key without surrounding quotes (escapes are
                // fine: none of the checked keys contain any).
                std::size_t s = key_start;
                while (s < text.size() && text[s] != '"')
                    ++s;
                std::size_t e = s + 1;
                while (e < text.size() && text[e] != '"')
                    ++e;
                key = text.substr(s + 1, e - s - 1);
            }
            if (!consume(':'))
                return false;
            skipWs();
            std::size_t vstart = pos;
            if (!parseValue())
                return false;
            if (kv)
                kv->emplace_back(std::move(key),
                                 text.substr(vstart, pos - vstart));
            skipWs();
            if (pos < text.size() && text[pos] == ',') {
                ++pos;
                continue;
            }
            return consume('}');
        }
    }

    bool
    parseArray()
    {
        if (!consume('['))
            return false;
        skipWs();
        if (pos < text.size() && text[pos] == ']') {
            ++pos;
            return true;
        }
        for (;;) {
            if (!parseValue())
                return false;
            skipWs();
            if (pos < text.size() && text[pos] == ',') {
                ++pos;
                continue;
            }
            return consume(']');
        }
    }
};

/** Does the event object starting at `pos` carry all required keys? */
bool
checkEvent(Parser &p)
{
    std::vector<std::pair<std::string, std::string>> kv;
    if (!p.parseObject(&kv))
        return false;
    auto find = [&kv](const char *key) -> const std::string * {
        for (const auto &[k, v] : kv)
            if (k == key)
                return &v;
        return nullptr;
    };
    for (const char *req : {"name", "ph", "pid", "tid"}) {
        if (!find(req))
            return p.fail(std::string("event missing \"") + req +
                          "\" key");
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 2) {
        std::fprintf(stderr, "usage: trace_lint <trace.json>\n");
        return 2;
    }

    std::ifstream is(argv[1]);
    if (!is) {
        std::fprintf(stderr, "trace_lint: cannot open '%s'\n", argv[1]);
        return 1;
    }
    std::ostringstream buf;
    buf << is.rdbuf();
    const std::string text = buf.str();

    // Pass 1: the whole document must be strictly well-formed JSON.
    {
        Parser p(text);
        if (!p.parseValue()) {
            std::fprintf(stderr, "trace_lint: %s: %s\n", argv[1],
                         p.error.c_str());
            return 1;
        }
        p.skipWs();
        if (p.pos != text.size()) {
            std::fprintf(stderr,
                         "trace_lint: %s: trailing garbage after "
                         "document\n",
                         argv[1]);
            return 1;
        }
    }

    // Pass 2: Chrome trace_event shape — {"traceEvents": [{...}, ...]}
    // with the keys the viewers require on every event.
    Parser p(text);
    p.skipWs();
    if (p.pos >= text.size() || text[p.pos] != '{') {
        std::fprintf(stderr,
                     "trace_lint: %s: top level is not an object\n",
                     argv[1]);
        return 1;
    }
    std::size_t te = text.find("\"traceEvents\"");
    if (te == std::string::npos) {
        std::fprintf(stderr,
                     "trace_lint: %s: no \"traceEvents\" member\n",
                     argv[1]);
        return 1;
    }
    p.pos = te + std::strlen("\"traceEvents\"");
    if (!p.consume(':') || !p.consume('[')) {
        std::fprintf(stderr,
                     "trace_lint: %s: \"traceEvents\" is not an "
                     "array\n",
                     argv[1]);
        return 1;
    }
    std::size_t events = 0;
    p.skipWs();
    if (p.pos < text.size() && text[p.pos] != ']') {
        for (;;) {
            if (!checkEvent(p)) {
                std::fprintf(stderr, "trace_lint: %s: %s\n", argv[1],
                             p.error.c_str());
                return 1;
            }
            ++events;
            p.skipWs();
            if (p.pos < text.size() && text[p.pos] == ',') {
                ++p.pos;
                continue;
            }
            break;
        }
    }

    std::printf("trace_lint: %s: ok (%zu events)\n", argv[1], events);
    return 0;
}
