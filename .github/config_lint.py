#!/usr/bin/env python3
"""Every member of a config struct is set somewhere, matched by type.

A config member that nothing sets is a configuration no test or bench
covers: it belongs in a named constant (DESIGN.md §9). Every member of a
`struct *Config` / `*Options` in src/ and bench/ must be set somewhere
outside its declaring header, in src/, bench/, tests/, examples/ or
hopsbench/, by one of:

  - an assignment or compound assignment `v.m = ...` / `p->m += ...`
    whose receiver resolves to the struct: `v` is declared with the
    struct's type (a local, parameter, member or `auto v = F(...)` with
    `F` declared to return it), or is reached through members of known
    types, as in `opts.deployment.client.rpc_timeout = ...`, which sets
    ChaosOptions::deployment, DeploymentOptions::client and
    ClientConfig::rpc_timeout;
  - a positional brace-init of the struct, which sets every member.

A same-named member of another struct no longer counts. A member is a
declaration in the struct body, however it is laid out: one split over
two lines and one whose type holds parentheses, as a `std::function`
member, count like any other. Run from the repository root; exits 1 and
names each member that is never set.
"""
import bisect
import glob
import os
import re
import sys

DIRS = ("src", "bench", "tests", "examples", "hopsbench")
IDENT = r"[A-Za-z_]\w*"
# Code only: string literals and comments cannot set a member.
STRIP = re.compile(r'"(?:\\.|[^"\\\n])*"|//[^\n]*|/\*.*?\*/', re.S)
SKIP = re.compile(r"\s*(static|using|friend|return|typedef|struct|class|"
                  r"enum|union|template|explicit|virtual|operator|~)\b")
CHAR = re.compile(r"'(?:\\.|[^'\\\n])'")  # a char literal, as '(' or '}'
LABEL = re.compile(r"\b(?:public|protected|private)\s*:(?!:)")


def blank(m):
    """Empties a string literal; blanks a comment but keeps its newlines."""
    if m.group(0).startswith('"'):
        return '""'
    return "".join(c if c == "\n" else " " for c in m.group(0))


def base_type(text):
    """`hopsfs::DeploymentOptions` -> `DeploymentOptions`."""
    text = re.sub(r"<.*>", "", text).replace("const", " ").strip(" *&")
    return text.split("::")[-1].split()[-1] if text.split() else ""


def statements(body):
    """Splits a struct body into its top-level declarations.

    A declaration may span lines and hold parentheses and braces: a
    `std::function<void(Simulation&)>` type, a brace initializer. An
    inline function body ends its statement without a `;`.
    """
    out, cur, depth, paren = [], [], 0, 0
    for c in body:
        paren += {"(": 1, ")": -1}.get(c, 0)
        if paren > 0:  # an argument list: a `= {}` default is no body
            cur.append(c)
            continue
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                cur.append(c)
                if is_function("".join(cur)):
                    out.append("".join(cur) + ";")  # no member
                    cur = []
                continue
        if c == ";" and depth == 0:
            out.append("".join(cur) + ";")
            cur = []
            continue
        cur.append(c)
    return out


def is_function(text):
    """Whether `text`, ending in a brace block, is a function definition."""
    head = top_level(text[:text.index("{")])
    if re.search(r"\boperator\b", head):
        return True
    paren = head.find("(")
    return paren >= 0 and "=" not in head[:paren]


def top_level(text):
    """`text` with the inside of every (), <>, {} and [] group blanked."""
    out, depth = [], 0
    for c in text:
        if c in ")>}]":
            depth = max(depth - 1, 0)
        out.append(c if depth == 0 else " ")
        if c in "(<{[":
            depth += 1
    return "".join(out)


def member_of(stmt):
    """(name, type) of a data-member declaration, else None."""
    stmt = LABEL.sub(" ", stmt).strip().rstrip(";").strip()
    if not stmt or SKIP.match(stmt) or re.search(r"\boperator\b", stmt):
        return None
    flat = top_level(stmt)
    # Drop the initializer: `= ...` or a trailing `{...}`.
    eq = flat.find("=")
    if eq >= 0:
        stmt, flat = stmt[:eq], flat[:eq]
    brace = re.search(r"\{\s*\}\s*$", flat)
    if brace:
        stmt, flat = stmt[:brace.start()], flat[:brace.start()]
    if "(" in flat or ":" in flat.replace("::", ""):
        return None  # a function declaration or a bit-field
    m = re.match(rf"(.*?[\w>*&\s])[*&]?\s*({IDENT})\s*(?:\[[^\]]*\])?\s*$",
                 stmt, re.S)
    if not m or not m.group(1).strip():
        return None
    return m.group(2), base_type(" ".join(m.group(1).split()))


def parse_structs(code):
    """Yields (struct, {member: type}) for each struct body in `code`."""
    code = CHAR.sub("' '", code)
    for m in re.finditer(r"(?<![\w:])(?:struct|class)\s+(\w+)(?:\s+final)?"
                         r"\s*(?::[^{;]*)?\{", code):
        start, depth = m.end() - 1, 0
        for end in range(start, len(code)):
            depth += {"{": 1, "}": -1}.get(code[end], 0)
            if depth == 0:
                break
        members = {}
        for stmt in statements(code[start + 1:end]):
            d = member_of(stmt)
            if d:
                members[d[0]] = d[1]
        yield m.group(1), members


def main():
    files = sorted(f for d in DIRS for f in glob.glob(f"{d}/**/*",
                                                      recursive=True)
                   if f.endswith((".h", ".cc", ".cpp")))
    code = {f: STRIP.sub(blank, open(f).read()) for f in files}

    structs = {}  # name -> {member: type name}
    checked = []  # (header, struct, [members]) of the config structs
    for f in files:
        for name, members in parse_structs(code[f]):
            structs.setdefault(name, {}).update(members)
            if f.startswith(("src/", "bench/")) and \
                    re.fullmatch(r"\w*(?:Config|Options)", name):
                checked.append((f, name, list(members)))

    known = "|".join(sorted(structs, key=len, reverse=True))
    typed = re.compile(rf"(?<![\w:])(?:\w+::)*({known})\s*(?:const\s*)?"
                       rf"[&*]*\s*({IDENT})\s*([;,)={{(\[:])")
    container = re.compile(rf"<\s*(?:\w+::)*({known})\b[^<>]*>\s*[&*]?\s*"
                           rf"({IDENT})\s*[;,)={{]")
    auto = re.compile(rf"\bauto\s*[&*]?\s*({IDENT})\s*=\s*([^;]*);")

    # Functions declared to return a struct: `ChaosOptions Small() {`.
    returns = {}
    for f in files:
        for m in typed.finditer(code[f]):
            if m.group(3) == "(":
                returns[m.group(2)] = m.group(1)

    decls = {}  # file -> {var: [(pos, type)] in file order}
    for f in files:
        d = {}
        for m in list(typed.finditer(code[f])) + \
                list(container.finditer(code[f])):
            d.setdefault(m.group(2), []).append((m.start(), m.group(1)))
        for m in auto.finditer(code[f]):
            rhs = m.group(2).strip()
            call = re.match(rf"(?:\w+::)*({IDENT})\s*[({{]", rhs)
            t = None
            if call:
                t = returns.get(call.group(1)) or (
                    call.group(1) if call.group(1) in structs else None)
            if t:
                d.setdefault(m.group(1), []).append((m.start(), t))
        for v in d.values():
            v.sort()
        decls[f] = d

    def includes(f):
        """The file's own header first, then its quoted includes."""
        out = []
        stem = os.path.splitext(f)[0] + ".h"
        if stem != f and stem in code:
            out.append(stem)
        for inc in re.findall(r'#include\s*"([^"]+)"', open(f).read()):
            for base in ("src", os.path.dirname(f), "."):
                p = os.path.normpath(os.path.join(base, inc))
                if p in code and p not in out:
                    out.append(p)
        return out

    def var_type(f, var, pos):
        """The type of the nearest declaration of `var` before `pos`."""
        found = decls[f].get(var)
        if found:
            i = bisect.bisect_right([p for p, _ in found], pos) - 1
            return found[max(i, 0)][1]
        for h in includes(f):
            if decls[h].get(var):
                return decls[h][var][-1][1]
        return None

    assign = re.compile(
        rf"(?<![\w.>])({IDENT}(?:\[[^\]]*\])?(?:\s*(?:\.|->)\s*{IDENT}"
        rf"(?:\[[^\]]*\])?)*)\s*(?:\.|->)\s*({IDENT})\s*[-+*/|&]?=(?!=)")
    set_in = {}  # (struct, member) -> files that set it
    for f in files:
        for m in assign.finditer(code[f]):
            parts = [re.sub(r"\[.*\]", "", p).strip()
                     for p in re.split(r"\.|->", m.group(1))]
            parts.append(m.group(2))
            t = var_type(f, parts[0], m.start())
            for member in parts[1:]:
                if t is None:
                    break
                set_in.setdefault((t, member), set()).add(f)
                t = structs.get(t, {}).get(member)

    unset = total = 0
    for header, struct, members in checked:
        others = "\n".join(t for f, t in code.items() if f != header)
        # Positional brace-init sets every member.
        brace = re.search(rf"\b{struct}\s*({IDENT}\s*)?\{{\s*[^}}\s.]",
                          others)
        for name in members:
            total += 1
            if brace or set_in.get((struct, name), set()) - {header}:
                continue
            unset += 1
            print(f"{header}: {struct}::{name} is set nowhere outside "
                  f"its header")
    print(f"{total} settable members, {unset} never set")
    return 1 if unset else 0


if __name__ == "__main__":
    sys.exit(main())
