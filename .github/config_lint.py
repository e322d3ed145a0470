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

A same-named member of another struct no longer counts. Run from the
repository root; exits 1 and names each member that is never set.
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
MEMBER = re.compile(r"\s*((?:[\w:<>,*&]+\s+)+?)[*&]?(\w+)"
                    r"(?:\s*=[^;]*|\s*\{[^;]*\})?;")
SKIP = re.compile(r"\s*(static|using|friend|return|typedef)\b")


def blank(m):
    """Empties a string literal; blanks a comment but keeps its newlines."""
    if m.group(0).startswith('"'):
        return '""'
    return "".join(c if c == "\n" else " " for c in m.group(0))


def base_type(text):
    """`hopsfs::DeploymentOptions` -> `DeploymentOptions`."""
    text = re.sub(r"<.*>", "", text).replace("const", " ").strip(" *&")
    return text.split("::")[-1].split()[-1] if text.split() else ""


def parse_structs(code):
    """Yields (struct, {member: type}) for each struct body in `code`."""
    lines = code.split("\n")
    for i, line in enumerate(lines):
        m = re.match(r"\s*(?:struct|class)\s+(\w+)(?:\s+final)?\s*"
                     r"(?::[^{;]*)?\{", line)
        if not m:
            continue
        depth, members = 0, {}
        for body in lines[i:]:
            if depth == 1 and not SKIP.match(body):
                d = MEMBER.match(body)
                if d and "(" not in body.split("=")[0]:
                    members[d.group(2)] = base_type(d.group(1))
            depth += body.count("{") - body.count("}")
            if depth == 0 and "}" in body:
                break
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
