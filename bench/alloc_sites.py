#!/usr/bin/env python3
"""Symbolises allocation-site samples into a per-site allocs/op table.

    REPRO_CSV_DIR=prof_out ./build/bench/bench_prof
    python3 bench/alloc_sites.py prof_out/prof_alloc_samples.txt

The input is prof::AllocSamplesText's output: `# key value` header lines,
then one sampled allocation per line, its frames' return addresses in hex
relative to the executable's load base ("?" outside the executable). Each
address is resolved with `addr2line -a -f -C -i` (inlined frames
included). A sample's *site* is its innermost frame in this repository's
sources past the allocation hook and the standard library; *via* is the
next repository function up the stack. A site's allocs/op is its share of
the samples times the window's counted allocations per op. Prints the
table to stdout.
"""
import argparse
import collections
import os
import re
import subprocess
import sys

REPO_DIRS = ("/src/", "/bench/", "/tests/", "/hopsbench/", "/examples/")
HOOK_FUNCS = ("operator new", "SampleAlloc", "AllocOrThrow",
              "AllocAlignedOrThrow", "CountAlloc")


def read_samples(path):
    header, samples = {}, []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line.startswith("#"):
                key, _, value = line[1:].strip().partition(" ")
                header[key] = value
            elif line:
                samples.append(line.split())
    return header, samples


def symbolise(binary, addrs):
    """Maps each hex address to its frames, innermost first: a list of
    (function, "file:line") pairs."""
    addrs = sorted(addrs)
    # A return address points past its call; the call is one byte back.
    query = "\n".join("%x" % (int(a, 16) - 1) for a in addrs)
    out = subprocess.run(["addr2line", "-a", "-f", "-C", "-i", "-e", binary],
                         input=query, capture_output=True, text=True,
                         check=True).stdout.splitlines()
    frames, cur, i = {}, None, 0
    by_query = {"%x" % (int(a, 16) - 1): a for a in addrs}
    while i < len(out):
        line = out[i]
        if line.startswith("0x"):
            cur = by_query[line[2:].lstrip("0") or "0"]
            frames[cur] = []
            i += 1
            continue
        func = line
        loc = out[i + 1] if i + 1 < len(out) else "??:0"
        loc = loc.split(" (discriminator")[0]
        frames[cur].append((func, loc))
        i += 2
    return frames


def in_repo(func, loc):
    """A frame of this repository's code: by its source file when the
    binary has line info, else by the project namespace."""
    if any(h in func for h in HOOK_FUNCS) or func.startswith("std::"):
        return False
    if "/usr/" in loc:
        return False
    return "repro::" in func or any(d in loc for d in REPO_DIRS)


def short_loc(loc):
    if loc.startswith("??") or loc.endswith(":?"):
        return ""
    for d in REPO_DIRS:
        k = loc.rfind(d)
        if k >= 0:
            return loc[k + 1:]
    return os.path.basename(loc)


def short_func(func):
    """The function's qualified name without template arguments,
    parameters or the project namespace."""
    func = func.replace("(anonymous namespace)::", "").replace("repro::", "")
    func = re.sub(r"\{lambda\(.*?\)#(\d+)\}", r"{lambda#\1}", func)
    out, angle, brace, i = [], 0, 0, 0
    while i < len(func):
        c = func[i]
        if brace == 0 and angle == 0 and func.startswith("operator()", i):
            out.append("operator()")
            i += len("operator()")
            continue
        if c == "{":
            brace += 1
        elif c == "}":
            brace -= 1
        elif brace == 0 and c == "<":
            angle += 1
        elif brace == 0 and c == ">" and angle > 0:
            angle -= 1
            i += 1
            continue
        elif brace == 0 and angle == 0 and c == "(":
            break
        if angle == 0:
            out.append(c)
        i += 1
    return "".join(out)


def site_of(sample, frames):
    chain = []
    for addr in sample:
        if addr == "?":
            continue
        for func, loc in frames.get(addr, []):
            if in_repo(func, loc):
                chain.append((short_func(func), short_loc(loc)))
    if not chain:
        return "(outside the repository)", ""
    site = " ".join(x for x in chain[0] if x)
    via = next((f for f, _ in chain[1:] if f != chain[0][0]), "")
    return site, via


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("samples")
    parser.add_argument("--binary", help="default: the samples' `# binary`")
    parser.add_argument("--top", type=int, default=30)
    args = parser.parse_args()

    header, samples = read_samples(args.samples)
    binary = args.binary or header.get("binary", "")
    if not samples:
        print("no samples in %s (was the sampler on in the window?)" %
              args.samples, file=sys.stderr)
        return 1
    frames = symbolise(binary, {a for s in samples for a in s if a != "?"})
    sites = collections.Counter(site_of(s, frames) for s in samples)

    allocs = int(header.get("allocs", 0))
    ops = int(header.get("ops", 0))
    per_op = allocs / ops if ops else 0.0
    print("# %d samples, 1 per %s counted allocations (%s dropped); "
          "%d allocations over %d ops = %.2f allocs/op" %
          (len(samples), header.get("every", "?"), header.get("dropped", "0"),
           allocs, ops, per_op))
    print("%10s %7s %8s  %s" % ("allocs/op", "share", "samples",
                                "site  <- via"))
    for (site, via), n in sites.most_common(args.top):
        share = n / len(samples)
        print("%10.3f %6.1f%% %8d  %s%s" % (share * per_op, 100 * share, n,
                                              site,
                                              "  <- " + via if via else ""))
    rest = len(sites) - args.top
    if rest > 0:
        print("# %d more sites" % rest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
