/**
 * @file
 * mqxlint — the project's domain linter.
 *
 * Enforces invariants that generic tools (clang-tidy, cppcheck) cannot
 * see because they are about THIS codebase's contracts:
 *
 *   backend-coverage  every entry point declared in ntt_backends.h /
 *                     blas_backends.h is
 *                     defined in its backend TU
 *                     (suffix Scalar/Portable/Avx2/Avx512/Avx512Ifma/
 *                     Mqx selects the file), directly or through a
 *                     tier body the TU includes with a name macro
 *                     (expandTierBodies). A dispatcher routing to a
 *                     missing symbol is a link error only in configurations
 *                     that compile that tier — this catches it always.
 *   dspan-validate    every backend entry point taking a DSpan/
 *                     DConstSpan validates its arguments: calls
 *                     validateNttArgs, validateBatchNttArgs or checkArg
 *                     directly, or routes through a pease impl (which
 *                     validates on entry).
 *   atomic-order      every std::atomic load/store/RMW in
 *                     src/telemetry/ and src/engine/ names an explicit
 *                     memory_order — no silent seq_cst in the
 *                     counters/pool hot paths.
 *   aligned-alloc     no raw new[], malloc, or unaligned
 *                     std::vector<uint64_t> channel buffers in the
 *                     residue-data layers (core, rns, ntt, blas, simd,
 *                     word64) outside core/aligned.h — channel storage
 *                     must go through the 64-byte-aligned funnel.
 *   hot-modulo        no `%` with a non-literal divisor in the hot-path
 *                     directories (ntt, blas, simd, word64) — modular
 *                     arithmetic belongs to src/mod/'s Barrett/Shoup
 *                     pipelines, not hardware division.
 *   prefetch-hygiene  no raw `_mm_prefetch` / `__builtin_prefetch`
 *                     outside core/prefetch.h — the prefetch policy
 *                     (hint level, lookahead distance) lives in the
 *                     sanctioned prefetchRead/prefetchNext helpers,
 *                     mirroring the aligned-alloc funnel.
 *   setup-bigint      no BigUInt, bigint/biguint.h include, or use of
 *                     the long-division oracle shoupPrecompute in the
 *                     kernel and engine directories (ntt, word64, simd,
 *                     blas, engine; .inc bodies included) — plan and
 *                     table derivation computes Shoup companions in
 *                     word arithmetic (Modulus::shoupCompanion), so a
 *                     per-entry heap-allocating division cannot return.
 *   net-hygiene       raw global-qualified POSIX socket syscalls
 *                     (`::socket(`, `::recv(`, ...) outside src/net/ —
 *                     socket I/O goes through net::Socket, which owns
 *                     fd lifetime, errno->Status mapping, and the
 *                     fault-injection points. Inside src/net/, every
 *                     blocking-capable syscall must sit in a function
 *                     with a poll/timeout guard.
 *
 * Usage:
 *   mqxlint --repo-root <dir> [--allowlist <file>] [--fix-dry-run]
 *   mqxlint --self-test --repo-root <fixtures-dir>
 *
 * Diagnostics are `file:line: [rule] message`, one per line, exit 1 if
 * any violation survives the allowlist. The allowlist file holds lines
 * of the form `rule relative/path substring-of-offending-line` (# for
 * comments); --fix-dry-run reports violations WITH ready-to-paste
 * allowlist lines and exits 0 (the CI report artifact). --self-test
 * lints the bundled fixture tree twice — once expecting each rule to
 * fire exactly once, once with <fixtures>/allowlist.txt expecting full
 * suppression.
 */
#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace fs = std::filesystem;

namespace {

struct Diagnostic
{
    std::string file; // repo-relative path
    int line = 0;
    std::string rule;
    std::string message;
    std::string source_line; // raw text, for allowlist matching
};

struct AllowEntry
{
    std::string rule;
    std::string path_substr;
    std::string line_substr; // may be empty: any line in the file
};

/**
 * Replace comments, string literals, and char literals with spaces,
 * preserving every newline so offsets map back to line numbers.
 */
std::string
stripCode(const std::string& text)
{
    std::string out(text);
    enum class St
    {
        Code,
        LineComment,
        BlockComment,
        String,
        Char
    } st = St::Code;
    for (size_t i = 0; i < text.size(); ++i) {
        char c = text[i];
        char n = i + 1 < text.size() ? text[i + 1] : '\0';
        switch (st) {
        case St::Code:
            if (c == '/' && n == '/') {
                st = St::LineComment;
                out[i] = ' ';
            } else if (c == '/' && n == '*') {
                st = St::BlockComment;
                out[i] = ' ';
            } else if (c == '"') {
                st = St::String;
                out[i] = ' ';
            } else if (c == '\'') {
                st = St::Char;
                out[i] = ' ';
            }
            break;
        case St::LineComment:
            if (c == '\n')
                st = St::Code;
            else
                out[i] = ' ';
            break;
        case St::BlockComment:
            if (c == '*' && n == '/') {
                out[i] = ' ';
                out[i + 1] = ' ';
                ++i;
                st = St::Code;
            } else if (c != '\n') {
                out[i] = ' ';
            }
            break;
        case St::String:
            if (c == '\\' && n != '\0') {
                out[i] = ' ';
                if (n != '\n')
                    out[i + 1] = ' ';
                ++i;
            } else if (c == '"') {
                out[i] = ' ';
                st = St::Code;
            } else if (c != '\n') {
                out[i] = ' ';
            }
            break;
        case St::Char:
            if (c == '\\' && n != '\0') {
                out[i] = ' ';
                if (n != '\n')
                    out[i + 1] = ' ';
                ++i;
            } else if (c == '\'') {
                out[i] = ' ';
                st = St::Code;
            } else if (c != '\n') {
                out[i] = ' ';
            }
            break;
        }
    }
    return out;
}

struct SourceFile
{
    std::string rel;  // repo-relative path with forward slashes
    std::string raw;  // file contents
    std::string code; // stripCode(raw)
    std::string tu;   // expanded tier body: the TU that instantiates it
};

int
lineOf(const std::string& text, size_t offset)
{
    return 1 + static_cast<int>(
                   std::count(text.begin(), text.begin() + offset, '\n'));
}

std::string
rawLine(const std::string& raw, int line)
{
    std::istringstream in(raw);
    std::string s;
    for (int i = 0; i < line && std::getline(in, s); ++i) {
    }
    return s;
}

bool
readFile(const fs::path& p, std::string& out)
{
    std::ifstream in(p, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

/** Offset just past the parenthesized group opening at @p open. */
size_t
matchParen(const std::string& s, size_t open)
{
    int depth = 0;
    for (size_t i = open; i < s.size(); ++i) {
        if (s[i] == '(')
            ++depth;
        else if (s[i] == ')' && --depth == 0)
            return i + 1;
    }
    return std::string::npos;
}

size_t
matchBrace(const std::string& s, size_t open)
{
    int depth = 0;
    for (size_t i = open; i < s.size(); ++i) {
        if (s[i] == '{')
            ++depth;
        else if (s[i] == '}' && --depth == 0)
            return i + 1;
    }
    return std::string::npos;
}

bool
isIdentChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/** Offsets of @p tok in @p code where it stands as a whole identifier. */
std::vector<size_t>
findWord(const std::string& code, const std::string& tok)
{
    std::vector<size_t> out;
    for (size_t pos = 0; (pos = code.find(tok, pos)) != std::string::npos;
         pos += tok.size()) {
        const size_t end = pos + tok.size();
        if ((pos == 0 || !isIdentChar(code[pos - 1])) &&
            (end >= code.size() || !isIdentChar(code[end])))
            out.push_back(pos);
    }
    return out;
}

class Linter
{
  public:
    Linter(fs::path root, std::vector<AllowEntry> allow)
        : root_(std::move(root)), allow_(std::move(allow))
    {
    }

    std::vector<Diagnostic>
    run()
    {
        loadTree();
        ruleBackendCoverage();
        ruleDspanValidate();
        ruleAtomicOrder();
        ruleAlignedAlloc();
        ruleHotModulo();
        ruleSetupBigint();
        rulePrefetchHygiene();
        ruleCatchSwallow();
        ruleNetHygiene();
        std::sort(diags_.begin(), diags_.end(),
                  [](const Diagnostic& a, const Diagnostic& b) {
                      return std::tie(a.file, a.line, a.rule) <
                             std::tie(b.file, b.line, b.rule);
                  });
        return diags_;
    }

    int suppressed() const { return suppressed_; }

  private:
    void
    loadTree()
    {
        fs::path src = root_ / "src";
        if (!fs::exists(src))
            return;
        for (const auto& e : fs::recursive_directory_iterator(src)) {
            if (!e.is_regular_file())
                continue;
            std::string ext = e.path().extension().string();
            if (ext != ".h" && ext != ".cc" && ext != ".inc")
                continue;
            SourceFile f;
            if (!readFile(e.path(), f.raw))
                continue;
            f.rel = fs::relative(e.path(), root_).generic_string();
            f.code = stripCode(f.raw);
            (ext == ".inc" ? incs_ : files_).push_back(std::move(f));
        }
        expandTierBodies();
        std::sort(files_.begin(), files_.end(),
                  [](const SourceFile& a, const SourceFile& b) {
                      return std::tie(a.rel, a.tu) < std::tie(b.rel, b.tu);
                  });
    }

    /**
     * ParPar-style tier bodies (src/ntt/pease_tier.inc, compiled as
     * every SIMD ntt_<tier>.cc, and src/blas/blas_tier.inc, compiled
     * as every SIMD blas_<tier>.cc): a TU that
     * does `#define M(name) name##Suffix` and then includes "x.inc"
     * defines every `M(fn)` of x.inc as fnSuffix. Each such define
     * names the .inc includes that follow it, up to the next one, so a
     * TU may instantiate a body several times (ntt_mqx.cc, blas_mqx.cc).
     * Each instantiation is linted as its own file — the body's path
     * and line numbers with the names expanded — and backend-coverage
     * credits it to the TU.
     */
    void
    expandTierBodies()
    {
        static const std::regex kDefine(
            R"(#define\s+(\w+)\((\w+)\)\s+\2\s*##\s*(\w+))");
        static const std::regex kInclude(R"re(#include\s+"([^"]+\.inc)")re");
        const std::sregex_iterator end;
        std::vector<SourceFile> bodies;
        for (const auto& f : files_) {
            const std::vector<std::smatch> defs(
                std::sregex_iterator(f.raw.begin(), f.raw.end(), kDefine),
                end);
            for (size_t d = 0; d < defs.size(); ++d) {
                const std::regex use("\\b" + defs[d][1].str() +
                                     "\\((\\w+)\\)");
                const std::string suffix = "$1" + defs[d][3].str();
                const auto to =
                    d + 1 < defs.size() ? defs[d + 1][0].first : f.raw.end();
                for (std::sregex_iterator it(defs[d][0].second, to, kInclude);
                     it != end; ++it) {
                    const std::string inc = (*it)[1].str();
                    SourceFile body;
                    if (!readFile(root_ / "src" / inc, body.raw))
                        continue;
                    body.raw = std::regex_replace(body.raw, use, suffix);
                    body.rel = "src/" + inc;
                    body.code = stripCode(body.raw);
                    body.tu = f.rel;
                    bodies.push_back(std::move(body));
                }
            }
        }
        for (auto& b : bodies)
            files_.push_back(std::move(b));
    }

    const SourceFile*
    find(const std::string& rel) const
    {
        for (const auto& f : files_)
            if (f.rel == rel && f.tu.empty())
                return &f;
        return nullptr;
    }

    void
    report(const SourceFile& f, int line, const std::string& rule,
           const std::string& message)
    {
        Diagnostic d{f.rel, line, rule, message, rawLine(f.raw, line)};
        for (const auto& a : allow_) {
            if (a.rule != rule)
                continue;
            if (d.file.find(a.path_substr) == std::string::npos)
                continue;
            if (!a.line_substr.empty() &&
                d.source_line.find(a.line_substr) == std::string::npos)
                continue;
            ++suppressed_;
            return;
        }
        diags_.push_back(std::move(d));
    }

    /**
     * Entry-point names declared in a backends header, restricted to
     * each `namespace backends { ... }` region (up to the namespace's
     * own closing brace, so a struct's `};` inside it ends nothing),
     * with the line each declaration starts on. Declarations put the
     * name on the `void` line (project style).
     */
    std::map<std::string, int>
    declaredEntryPoints(const SourceFile& header) const
    {
        std::map<std::string, int> out;
        const std::string& code = header.code;
        for (size_t ns = code.find("namespace backends");
             ns != std::string::npos;
             ns = code.find("namespace backends", ns + 1)) {
            const size_t open = code.find('{', ns);
            if (open == std::string::npos)
                break;
            const size_t close = matchBrace(code, open);
            std::istringstream in(code.substr(
                open, (close == std::string::npos ? code.size() : close) -
                          open));
            std::string line;
            for (int lineno = lineOf(code, open); std::getline(in, line);
                 ++lineno) {
                size_t v = line.find("void ");
                if (v == std::string::npos)
                    continue;
                size_t name_begin = v + 5;
                while (name_begin < line.size() && line[name_begin] == ' ')
                    ++name_begin;
                size_t name_end = name_begin;
                while (name_end < line.size() && isIdentChar(line[name_end]))
                    ++name_end;
                if (name_end == name_begin || name_end >= line.size() ||
                    line[name_end] != '(')
                    continue;
                out[line.substr(name_begin, name_end - name_begin)] = lineno;
            }
        }
        return out;
    }

    /** The backend TU (repo-relative) implementing @p name, or "". */
    static std::string
    backendTu(const std::string& dir, const std::string& stem,
              const std::string& name)
    {
        auto ends = [&](const char* s) {
            std::string suf(s);
            return name.size() > suf.size() &&
                   name.compare(name.size() - suf.size(), suf.size(), suf) ==
                       0;
        };
        std::string tier;
        if (ends("Avx512Ifma"))
            tier = "avx512_ifma";
        else if (ends("Scalar"))
            tier = "scalar";
        else if (ends("Portable"))
            tier = "portable";
        else if (ends("Avx2"))
            tier = "avx2";
        else if (ends("Avx512"))
            tier = "avx512";
        else if (name.find("Mqx") != std::string::npos)
            tier = "mqx";
        else
            return "";
        return dir + "/" + stem + "_" + tier + ".cc";
    }

    /** True if @p tu defines @p name (project style: name at column 0). */
    static bool
    definesFunction(const SourceFile& tu, const std::string& name)
    {
        const std::string needle = "\n" + name + "(";
        if (tu.code.compare(0, name.size() + 1, name + "(") == 0)
            return true;
        return tu.code.find(needle) != std::string::npos;
    }

    void
    ruleBackendCoverage()
    {
        const struct
        {
            const char* header;
            const char* dir;
            const char* stem;
        } kHeaders[] = {
            {"src/ntt/ntt_backends.h", "src/ntt", "ntt"},
            {"src/blas/blas_backends.h", "src/blas", "blas"},
        };
        for (const auto& h : kHeaders) {
            const SourceFile* header = find(h.header);
            if (!header)
                continue;
            for (const auto& [name, line] : declaredEntryPoints(*header)) {
                entry_points_.insert(name);
                std::string tu_rel = backendTu(h.dir, h.stem, name);
                if (tu_rel.empty())
                    continue;
                const SourceFile* tu = find(tu_rel);
                if (!tu)
                    continue; // tier not present in this tree
                bool defined = definesFunction(*tu, name);
                for (const auto& f : files_)
                    if (f.tu == tu_rel && definesFunction(f, name))
                        defined = true;
                if (!defined)
                    report(*header, line, "backend-coverage",
                           "entry point '" + name +
                               "' is declared here but not defined in " +
                               tu_rel);
            }
        }
    }

    void
    ruleDspanValidate()
    {
        // Satisfying calls: direct validation, or routing through an
        // impl that validates on entry — the ISA-templated pease/blas
        // impls (`...Impl<Isa>(`) and the MQX entry points (`...Impl(`).
        const char* kValidators[] = {"validateNttArgs(",
                                     "validateBatchNttArgs(", "checkArg(",
                                     "Impl(", "Impl<"};
        for (const auto& f : files_) {
            bool in_scope = (f.rel.rfind("src/ntt/", 0) == 0 ||
                             f.rel.rfind("src/blas/", 0) == 0) &&
                            (f.rel.ends_with(".cc") || !f.tu.empty());
            if (!in_scope)
                continue;
            size_t pos = 0;
            while (pos < f.code.size()) {
                size_t nl = f.code.find('\n', pos);
                std::string_view line(f.code.data() + pos,
                                      (nl == std::string::npos
                                           ? f.code.size()
                                           : nl) -
                                          pos);
                size_t name_end = 0;
                while (name_end < line.size() &&
                       isIdentChar(line[name_end]))
                    ++name_end;
                if (name_end > 0 && name_end < line.size() &&
                    line[name_end] == '(' &&
                    entry_points_.count(std::string(
                        line.substr(0, name_end)))) {
                    size_t open = pos + name_end;
                    size_t params_end = matchParen(f.code, open);
                    if (params_end != std::string::npos) {
                        std::string params = f.code.substr(
                            open, params_end - open);
                        size_t brace = f.code.find_first_not_of(
                            " \t\r\n", params_end);
                        if (brace != std::string::npos &&
                            f.code[brace] == '{' &&
                            (params.find("DSpan") != std::string::npos ||
                             params.find("DConstSpan") !=
                                 std::string::npos)) {
                            size_t body_end = matchBrace(f.code, brace);
                            std::string body = f.code.substr(
                                brace, (body_end == std::string::npos
                                            ? f.code.size()
                                            : body_end) -
                                           brace);
                            bool ok = false;
                            for (const char* v : kValidators)
                                if (body.find(v) != std::string::npos)
                                    ok = true;
                            if (!ok)
                                report(f, lineOf(f.code, pos),
                                       "dspan-validate",
                                       "backend entry point '" +
                                           std::string(line.substr(
                                               0, name_end)) +
                                           "' takes DSpan arguments but "
                                           "never validates them "
                                           "(validateNttArgs/checkArg)");
                        }
                    }
                }
                if (nl == std::string::npos)
                    break;
                pos = nl + 1;
            }
        }
    }

    void
    ruleAtomicOrder()
    {
        const char* kOps[] = {".load(",
                              ".store(",
                              ".fetch_add(",
                              ".fetch_sub(",
                              ".fetch_or(",
                              ".fetch_and(",
                              ".fetch_xor(",
                              ".exchange(",
                              ".compare_exchange_weak(",
                              ".compare_exchange_strong("};
        for (const auto& f : files_) {
            if (f.rel.rfind("src/telemetry/", 0) != 0 &&
                f.rel.rfind("src/engine/", 0) != 0)
                continue;
            for (const char* op : kOps) {
                size_t pos = 0;
                while ((pos = f.code.find(op, pos)) != std::string::npos) {
                    size_t open = pos + std::string(op).size() - 1;
                    size_t end = matchParen(f.code, open);
                    std::string args =
                        end == std::string::npos
                            ? std::string()
                            : f.code.substr(open, end - open);
                    if (args.find("memory_order") == std::string::npos)
                        report(f, lineOf(f.code, pos), "atomic-order",
                               std::string("atomic operation '") + op +
                                   "...)' without an explicit "
                                   "memory_order (silent seq_cst)");
                    pos = open;
                }
            }
        }
    }

    void
    ruleAlignedAlloc()
    {
        const char* kDirs[] = {"src/core/", "src/rns/",    "src/ntt/",
                               "src/blas/", "src/simd/",   "src/word64/"};
        for (const auto& f : files_) {
            bool in_scope = false;
            for (const char* d : kDirs)
                in_scope = in_scope || f.rel.rfind(d, 0) == 0;
            if (!in_scope || f.rel == "src/core/aligned.h")
                continue;
            size_t pos = 0;
            while ((pos = f.code.find("std::vector<uint64_t>", pos)) !=
                   std::string::npos) {
                report(f, lineOf(f.code, pos), "aligned-alloc",
                       "unaligned std::vector<uint64_t> channel buffer; "
                       "use AlignedVec / ResidueVector "
                       "(core/aligned.h funnel)");
                pos += 1;
            }
            for (size_t at : findWord(f.code, "malloc"))
                report(f, lineOf(f.code, at), "aligned-alloc",
                       "raw malloc in a channel-data layer; use the "
                       "core/aligned.h funnel");
            // `new <type>[` or `new[` — raw array allocation.
            for (size_t at : findWord(f.code, "new")) {
                size_t i = at + 3;
                while (i < f.code.size() &&
                       (std::isspace(static_cast<unsigned char>(f.code[i])) ||
                        isIdentChar(f.code[i]) || f.code[i] == ':' ||
                        f.code[i] == '<' || f.code[i] == '>'))
                    ++i;
                if (i < f.code.size() && f.code[i] == '[')
                    report(f, lineOf(f.code, at), "aligned-alloc",
                           "raw new[] in a channel-data layer; use the "
                           "core/aligned.h funnel");
            }
        }
    }

    void
    ruleHotModulo()
    {
        const char* kDirs[] = {"src/ntt/", "src/blas/", "src/simd/",
                               "src/word64/"};
        for (const auto& f : files_) {
            bool in_scope = false;
            for (const char* d : kDirs)
                in_scope = in_scope || f.rel.rfind(d, 0) == 0;
            if (!in_scope)
                continue;
            for (size_t pos = 0; pos < f.code.size(); ++pos) {
                if (f.code[pos] != '%')
                    continue;
                // A literal divisor (power-of-two stage math like
                // `logn % 2`) compiles to masks; only runtime divisors
                // hit the divider.
                size_t r = pos + 1;
                if (r < f.code.size() && f.code[r] == '=')
                    ++r; // `%=` — same rule applies to the rhs
                while (r < f.code.size() &&
                       std::isspace(static_cast<unsigned char>(f.code[r])))
                    ++r;
                if (r < f.code.size() &&
                    std::isdigit(static_cast<unsigned char>(f.code[r])))
                    continue;
                report(f, lineOf(f.code, pos), "hot-modulo",
                       "'%' with a runtime divisor in a hot-path "
                       "directory; modular reduction belongs to "
                       "src/mod/ (Barrett/Shoup)");
            }
        }
    }

    void
    ruleSetupBigint()
    {
        const char* kDirs[] = {"src/ntt/", "src/word64/", "src/simd/",
                               "src/blas/", "src/engine/"};
        std::vector<const SourceFile*> scope;
        for (const auto* list : {&files_, &incs_}) {
            for (const auto& f : *list) {
                bool in_dir = false;
                for (const char* d : kDirs)
                    in_dir = in_dir || f.rel.rfind(d, 0) == 0;
                // Expanded tier bodies repeat their .inc, linted raw.
                if (in_dir && f.tu.empty())
                    scope.push_back(&f);
            }
        }
        for (const SourceFile* f : scope) {
            // stripCode blanks the header name, so read it from the raw
            // text at the same offset.
            for (size_t pos : findWord(f->code, "include")) {
                const size_t eol = f->raw.find('\n', pos);
                if (f->raw.substr(pos, eol - pos).find("bigint/biguint.h") !=
                    std::string::npos)
                    report(*f, lineOf(f->code, pos), "setup-bigint",
                           "bigint/biguint.h included in a kernel/engine "
                           "directory; derive tables in word arithmetic");
            }
            for (size_t pos : findWord(f->code, "BigUInt"))
                report(*f, lineOf(f->code, pos), "setup-bigint",
                       "BigUInt in a kernel/engine directory; derive "
                       "tables in word arithmetic (src/mod)");
            for (size_t pos : findWord(f->code, "shoupPrecompute"))
                report(*f, lineOf(f->code, pos), "setup-bigint",
                       "the long-division oracle shoupPrecompute; "
                       "use Modulus::shoupCompanion");
        }
    }

    void
    rulePrefetchHygiene()
    {
        const char* kIntrinsics[] = {"_mm_prefetch", "__builtin_prefetch"};
        for (const auto& f : files_) {
            if (f.rel == "src/core/prefetch.h")
                continue;
            for (const char* tok : kIntrinsics) {
                for (size_t pos : findWord(f.code, tok))
                    report(f, lineOf(f.code, pos), "prefetch-hygiene",
                           std::string("raw ") + tok +
                               " outside core/prefetch.h; use the "
                               "sanctioned prefetchRead/prefetchNext "
                               "helpers");
            }
        }
    }

    /**
     * `catch (...)` blocks that neither rethrow nor convert the failure
     * into the robust::Status taxonomy swallow errors silently — the
     * exact failure mode the fault-injection tests exist to catch.
     * Sanctioned shapes carry a `throw` (rethrow / translate) or a
     * `Status` (taxonomy conversion) token in the handler body;
     * deferred-rethrow funnels that stash std::current_exception() for
     * a later rethrow outside the block go on the allowlist with a
     * justifying comment.
     */
    void
    ruleCatchSwallow()
    {
        for (const auto& f : files_) {
            size_t pos = 0;
            while ((pos = f.code.find("catch", pos)) != std::string::npos) {
                const size_t kw = pos;
                pos += 5;
                bool word = (kw == 0 || !isIdentChar(f.code[kw - 1])) &&
                            (pos >= f.code.size() ||
                             !isIdentChar(f.code[pos]));
                if (!word)
                    continue;
                size_t open = pos;
                while (open < f.code.size() &&
                       std::isspace(
                           static_cast<unsigned char>(f.code[open])))
                    ++open;
                if (open >= f.code.size() || f.code[open] != '(')
                    continue;
                size_t close = matchParen(f.code, open);
                if (close == std::string::npos)
                    continue;
                // Typed handlers name what they expect and routinely
                // translate it; only the catch-all form is audited.
                if (f.code.substr(open, close - open).find("...") ==
                    std::string::npos)
                    continue;
                size_t bopen = f.code.find('{', close);
                size_t bclose = bopen == std::string::npos
                                    ? std::string::npos
                                    : matchBrace(f.code, bopen);
                if (bclose == std::string::npos)
                    continue;
                std::string body =
                    f.code.substr(bopen, bclose - bopen);
                if (body.find("throw") == std::string::npos &&
                    body.find("Status") == std::string::npos)
                    report(f, lineOf(f.code, kw), "catch-swallow",
                           "catch (...) that neither rethrows nor "
                           "converts to robust::Status swallows the "
                           "failure");
            }
        }
    }

    /**
     * POSIX socket hygiene. (a) Raw global-qualified socket syscalls
     * belong to src/net/ — the rest of the tree talks to peers through
     * net::Socket, which owns fd lifetime, errno->Status mapping, and
     * the net.* fault-injection points. (b) Inside src/net/, every
     * blocking-capable syscall (`::recv(`, `::accept(`, `::connect(`)
     * must sit in a function that polls first (`::poll(` or the
     * pollOne funnel) so no service thread can park forever on a dead
     * peer; sanctioned exceptions go on the allowlist with a
     * justifying comment.
     */
    void
    ruleNetHygiene()
    {
        const char* kSyscalls[] = {"::socket(", "::accept(", "::connect(",
                                   "::bind(",   "::listen(", "::recv(",
                                   "::send(",   "::shutdown("};
        const char* kBlocking[] = {"::recv(", "::accept(", "::connect("};
        for (const auto& f : files_) {
            if (f.rel.rfind("src/net/", 0) != 0) {
                for (const char* tok : kSyscalls) {
                    const size_t len = std::string(tok).size();
                    size_t pos = 0;
                    while ((pos = f.code.find(tok, pos)) !=
                           std::string::npos) {
                        // `std::bind(` / `Foo::send(` qualify with an
                        // identifier before the `::`; raw syscalls do
                        // not.
                        if (pos == 0 || (!isIdentChar(f.code[pos - 1]) &&
                                         f.code[pos - 1] != ':'))
                            report(f, lineOf(f.code, pos), "net-hygiene",
                                   std::string("raw ") + tok +
                                       "...) outside src/net/; route "
                                       "socket I/O through net::Socket");
                        pos += len;
                    }
                }
                continue;
            }
            // (b) poll-guard audit inside the funnel itself.
            for (const char* tok : kBlocking) {
                const size_t len = std::string(tok).size();
                size_t pos = 0;
                while ((pos = f.code.find(tok, pos)) !=
                       std::string::npos) {
                    if ((pos == 0 || (!isIdentChar(f.code[pos - 1]) &&
                                      f.code[pos - 1] != ':')) &&
                        !polledFunction(f.code, pos))
                        report(f, lineOf(f.code, pos), "net-hygiene",
                               std::string("blocking ") + tok +
                                   "...) without a poll/timeout guard in "
                                   "the enclosing function");
                    pos += len;
                }
            }
        }
    }

    /**
     * True if the function body containing @p pos has a poll call.
     * Project style opens every function body with a column-0 `{`, so
     * the enclosing body is the brace region started by the nearest
     * preceding `\n{`.
     */
    static bool
    polledFunction(const std::string& code, size_t pos)
    {
        const size_t open = code.rfind("\n{", pos);
        if (open == std::string::npos)
            return false;
        const size_t close = matchBrace(code, open + 1);
        if (close == std::string::npos || close < pos)
            return false;
        const std::string body = code.substr(open, close - open);
        return body.find("::poll(") != std::string::npos ||
               body.find("pollOne(") != std::string::npos;
    }

    fs::path root_;
    std::vector<AllowEntry> allow_;
    std::vector<SourceFile> files_;
    std::vector<SourceFile> incs_; ///< raw .inc files (setup-bigint only)
    std::set<std::string> entry_points_;
    std::vector<Diagnostic> diags_;
    int suppressed_ = 0;
};

std::vector<AllowEntry>
loadAllowlist(const fs::path& p)
{
    std::vector<AllowEntry> out;
    std::ifstream in(p);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ss(line);
        AllowEntry e;
        ss >> e.rule >> e.path_substr;
        std::getline(ss, e.line_substr);
        size_t first = e.line_substr.find_first_not_of(" \t");
        e.line_substr = first == std::string::npos
                            ? std::string()
                            : e.line_substr.substr(first);
        if (!e.rule.empty() && !e.path_substr.empty())
            out.push_back(e);
    }
    return out;
}

void
printDiags(const std::vector<Diagnostic>& diags, bool fix_dry_run)
{
    std::map<std::string, int> per_rule;
    for (const auto& d : diags) {
        std::cout << d.file << ":" << d.line << ": [" << d.rule << "] "
                  << d.message << "\n";
        if (fix_dry_run) {
            std::string token = d.source_line;
            size_t first = token.find_first_not_of(" \t");
            if (first != std::string::npos)
                token = token.substr(first);
            std::cout << "    allowlist: " << d.rule << " " << d.file << " "
                      << token << "\n";
        }
        ++per_rule[d.rule];
    }
    for (const auto& [rule, n] : per_rule)
        std::cout << "mqxlint: " << n << " violation" << (n == 1 ? "" : "s")
                  << " of " << rule << "\n";
}

int
selfTest(const fs::path& fixtures)
{
    const char* kRules[] = {"backend-coverage", "dspan-validate",
                            "atomic-order",     "aligned-alloc",
                            "hot-modulo",       "setup-bigint",
                            "prefetch-hygiene", "catch-swallow",
                            "net-hygiene"};
    // Pass 1: no allowlist — every rule fires exactly once.
    auto diags = Linter(fixtures, {}).run();
    printDiags(diags, false);
    bool ok = true;
    for (const char* rule : kRules) {
        int n = static_cast<int>(
            std::count_if(diags.begin(), diags.end(),
                          [&](const Diagnostic& d) { return d.rule == rule; }));
        if (n != 1) {
            std::cerr << "self-test FAIL: rule " << rule << " fired " << n
                      << " times on the fixtures (want exactly 1)\n";
            ok = false;
        }
    }
    if (diags.size() != std::size(kRules)) {
        std::cerr << "self-test FAIL: " << diags.size()
                  << " total diagnostics (want " << std::size(kRules)
                  << ")\n";
        ok = false;
    }
    // Pass 2: the bundled allowlist suppresses every diagnostic.
    Linter allowed(fixtures, loadAllowlist(fixtures / "allowlist.txt"));
    auto diags2 = allowed.run();
    if (!diags2.empty()) {
        std::cerr << "self-test FAIL: " << diags2.size()
                  << " diagnostics survive the fixture allowlist\n";
        printDiags(diags2, false);
        ok = false;
    }
    if (allowed.suppressed() != static_cast<int>(std::size(kRules))) {
        std::cerr << "self-test FAIL: allowlist suppressed "
                  << allowed.suppressed() << " (want " << std::size(kRules)
                  << ")\n";
        ok = false;
    }
    std::cout << (ok ? "mqxlint self-test PASSED\n"
                     : "mqxlint self-test FAILED\n");
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char** argv)
{
    fs::path root;
    fs::path allowlist;
    bool fix_dry_run = false;
    bool self_test = false;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg == "--repo-root" && i + 1 < argc)
            root = argv[++i];
        else if (arg == "--allowlist" && i + 1 < argc)
            allowlist = argv[++i];
        else if (arg == "--fix-dry-run")
            fix_dry_run = true;
        else if (arg == "--self-test")
            self_test = true;
        else {
            std::cerr << "usage: mqxlint --repo-root <dir> "
                         "[--allowlist <file>] [--fix-dry-run] "
                         "[--self-test]\n";
            return 2;
        }
    }
    if (root.empty()) {
        std::cerr << "mqxlint: --repo-root is required\n";
        return 2;
    }
    if (self_test)
        return selfTest(root);

    std::vector<AllowEntry> allow;
    if (!allowlist.empty())
        allow = loadAllowlist(allowlist);
    Linter linter(root, allow);
    auto diags = linter.run();
    printDiags(diags, fix_dry_run);
    std::cout << "mqxlint: " << diags.size() << " violation"
              << (diags.size() == 1 ? "" : "s") << ", "
              << linter.suppressed() << " allowlisted\n";
    if (fix_dry_run)
        return 0;
    return diags.empty() ? 0 : 1;
}
