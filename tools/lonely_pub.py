#!/usr/bin/env python3
"""List `pub` items that no file but their own mentions.

Takes the name of every `pub fn|struct|enum|trait|type|const` under
`crates/` and `src/`, and greps it as a word across `crates/`, `tests/`,
`src/`, `examples/` and `perfbench/src`. A `pub use` re-export is not a
use, so those statements are skipped. A name is used if another file
mentions it, or if a public signature in any file does: a `pub fn`
signature, the type of a `pub` field, or the type of a `pub type` or
`pub const`. A name with no use is "lonely": its item is public surface
that nothing outside its own file uses, so it should be deleted or made
private.

The scan is name-level: a name shared by several items (say `reset`)
counts as used for all of them, so it can hide an item but never flags a
used one. Names in `ALLOW` are reported only if they are no longer
lonely (the entry is stale and should go).

Usage: python3 tools/lonely_pub.py        (from the repository root)
Exit code: 0 clean, 1 findings, 2 usage error.
"""

import os
import re
import sys

DEFINED_IN = ["crates", "src"]
SEARCHED_IN = ["crates", "tests", "src", "examples", "perfbench/src"]

# Public items that stay public although nothing uses them. Each entry
# gives one of three reasons: the item is a public type in a public
# signature the scan does not read, a sealed trait, or the callee of a
# pinned test (a unit test whose name the suite keeps, so the item goes
# only when that test does).
SIGNATURE = "public type in a public signature"
SEALED = "sealed trait"
PINNED = "called by a pinned test"
ALLOW = {
    "AtomState": (SIGNATURE, "`SemilinearProtocol`'s state type is `Vec<AtomState>`"),
    "Sealed": (SEALED, "bounds `model::Family`; unnameable outside its crate"),
    "BurstStrategy": (PINNED, "`adversary::tests::bursts_are_finite_and_counted`"),
    "ConsensusOutput": (PINNED, "`semantics::tests::consensus_output_wraps_unanimity`"),
    "agents_in": (PINNED, "`config::tests::agents_in_lists_indices`"),
    "degradation_report": (PINNED, "`attack::tests::degradation_report_corroborates_thm33`"),
    "involving": (PINNED, "`trace::tests::involving_filters_by_agent`"),
    "max_deviation": (
        PINNED,
        "`topology_audit::tests::scheduler_covers_every_arc_roughly_uniformly`",
    ),
    "ordered_pair_weight": (PINNED, "`count::tests::ordered_pair_weight_tracks_n`"),
    "pairing_converged": (
        PINNED,
        "`pairing_audit::tests::pairing_converged_stabilizes_on_the_batched_path`",
    ),
    "reset": (PINNED, "`schedule::tests::reset_allows_reuse_across_runs`"),
    "rummy_ablation": (PINNED, "`ablation::tests::d1_naive_joker_bookkeeping_loses_runs`"),
    "sorted_pairs": (PINNED, "`multiset::tests::sorted_pairs_is_canonical`"),
    "states_of": (PINNED, "`trace::tests::states_of_distinguishes_roles`"),
    "symmetric_rule": (PINNED, "`protocol::tests::symmetric_rule_adds_mirror`"),
    "symmetry_report": (
        PINNED,
        "`protocol::tests::symmetry_report_flags_one_way_rules`",
    ),
}

ITEM = re.compile(
    r"^\s*pub\s+(?:(?:const|unsafe|async|extern\s+\"[^\"]*\")\s+)*"
    r"(fn|struct|enum|trait|type|const)\s+([A-Za-z_][A-Za-z0-9_]*)"
)
WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# A `pub use` statement, up to its semicolon.
REEXPORT = re.compile(r"^\s*pub\s+use\b[^;]*;", re.M)
# Where a public signature starts: a `pub fn` (up to its body or `;`), a
# `pub` field (up to the end of the line), or a `pub type` / `pub const`
# (from its name's end up to the `;`).
FN_SIGNATURE = re.compile(
    r"^\s*pub\s+(?:(?:const|unsafe|async|extern\s+\"[^\"]*\")\s+)*fn\s+\w+([^{;]*)",
    re.M,
)
FIELD_TYPE = re.compile(r"^\s*pub\s+[a-z_][A-Za-z0-9_]*\s*:([^\n]*)", re.M)
ALIAS_TYPE = re.compile(r"^\s*pub\s+(?:type|const)\s+(?!fn\b)\w+([^;]*)", re.M)


def rust_files(roots):
    for root in roots:
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = sorted(d for d in dirnames if d != "target")
            for name in sorted(filenames):
                if name.endswith(".rs"):
                    yield os.path.join(dirpath, name)


def read(path):
    with open(path, encoding="utf-8") as f:
        return f.read()


def main(argv):
    if len(argv) != 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    if not all(os.path.isdir(d) for d in DEFINED_IN):
        print("run from the repository root", file=sys.stderr)
        return 2

    # name -> [(file, line, kind)]
    defined = {}
    for path in rust_files(DEFINED_IN):
        for lineno, line in enumerate(read(path).splitlines(), 1):
            m = ITEM.match(line)
            if m:
                defined.setdefault(m.group(2), []).append((path, lineno, m.group(1)))

    # name -> set of files that mention it as a word outside re-exports;
    # names that some public signature mentions
    mentioned = {}
    in_signature = set()
    for path in rust_files(SEARCHED_IN):
        text = REEXPORT.sub("", read(path))
        for word in set(WORD.findall(text)):
            if word in defined:
                mentioned.setdefault(word, set()).add(path)
        for pattern in (FN_SIGNATURE, FIELD_TYPE, ALIAS_TYPE):
            for signature in pattern.findall(text):
                in_signature.update(WORD.findall(signature))

    findings = 0
    for name in sorted(defined):
        own = {path for path, _, _ in defined[name]}
        lonely = not (mentioned.get(name, set()) - own) and name not in in_signature
        if lonely and name not in ALLOW:
            for path, lineno, kind in defined[name]:
                print(f"{path}:{lineno}: pub {kind} {name} is used by no other file")
                findings += 1
        elif not lonely and name in ALLOW:
            print(f"{__file__}: allowlist entry {name} is used elsewhere; drop it")
            findings += 1
    for name in sorted(set(ALLOW) - set(defined)):
        print(f"{__file__}: allowlist entry {name} names no pub item; drop it")
        findings += 1

    if findings:
        print(f"{findings} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
