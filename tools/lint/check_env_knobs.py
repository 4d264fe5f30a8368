#!/usr/bin/env python3
"""check_env_knobs.py -- cross-check the SE_* env-knob and failpoint
registries against code, tests and docs.

A knob that exists in code but not in the README is invisible to
operators; one in the README but not in code is a lie; one nobody
tests is one refactor away from both. This check makes the four
surfaces agree by construction:

  1. every `getenv("SE_*")` knob in src/ is parsed (strictly) in
     RuntimeOptions::fromEnv (src/runtime/options.hh), and no driver
     (bench/*.cc, bench/*.hh, examples/*.cpp) calls getenv("SE_*")
     itself -- drivers take their knobs from fromEnv, so none can
     parse one more loosely than the library does;
  2. every knob is exercised by at least one tests/*.cc;
  3. every knob is documented in README.md;
  4. every SE_* token README documents is a real knob (allowlist for
     non-knob tokens like the SE_SANITIZE CMake option);
  5. every failpoint site named in src/ (SE_FAILPOINT,
     SE_FAILPOINT_THROW, failpoint::evaluate) appears in >= 1 test
     AND in README's named-sites list;
  6. every site README names is a real site in src/.

Run from the repo root (the lint ctest entry and CI do). Exit 0 when
all six hold; 1 with a per-violation report otherwise.

    tools/lint/check_env_knobs.py              # the gate
    tools/lint/check_env_knobs.py --self-test  # seed violations,
                                               # assert they are caught
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent

# SE_* identifiers in README/code that are NOT runtime env knobs:
# build options, assertion macros, the failpoint macro names
# themselves, and C++ include guards / annotation macros.
KNOB_ALLOWLIST = {
    "SE_SANITIZE",   # CMake option, not an env var
    "SE_ASSERT",     # assertion macro
    "SE_FATAL",      # logging macro
    "SE_FAILPOINT",  # the macro, not a knob
    "SE_FAILPOINT_THROW",
    # Thread-safety annotation macros (base/thread_annotations.hh).
    "SE_CAPABILITY",
    "SE_SCOPED_CAPABILITY",
    "SE_GUARDED_BY",
    "SE_PT_GUARDED_BY",
    "SE_REQUIRES",
    "SE_ACQUIRE",
    "SE_RELEASE",
    "SE_TRY_ACQUIRE",
    "SE_EXCLUDES",
    "SE_ACQUIRED_BEFORE",
    "SE_ACQUIRED_AFTER",
    "SE_RETURN_CAPABILITY",
    "SE_NO_THREAD_SAFETY_ANALYSIS",
}

GETENV_RE = re.compile(r'getenv\("(SE_[A-Z_]+)"\)')
SITE_RE = re.compile(
    r'(?:SE_FAILPOINT(?:_THROW)?|evaluate)\("([a-z][a-z0-9_]*)"')
README_TOKEN_RE = re.compile(r"\bSE_[A-Z_]+\b")


def read(path):
    return path.read_text(encoding="utf-8", errors="replace")


def collect(root=ROOT):
    """Scan the tree once; return the raw registries."""
    src = sorted((root / "src").rglob("*.cc")) + sorted(
        (root / "src").rglob("*.hh"))
    tests = sorted((root / "tests").glob("*.cc"))
    drivers = (sorted((root / "bench").glob("*.cc")) +
               sorted((root / "bench").glob("*.hh")) +
               sorted((root / "examples").glob("*.cpp")))
    readme = read(root / "README.md")
    src_text = {p: read(p) for p in src}
    tests_text = "\n".join(read(p) for p in tests)

    knobs = set()
    sites = set()
    for text in src_text.values():
        knobs.update(GETENV_RE.findall(text))
        sites.update(SITE_RE.findall(text))

    from_env = read(root / "src" / "runtime" / "options.hh")
    return {
        "knobs": knobs,
        "sites": sites,
        "from_env": from_env,
        "drivers_text": {p.relative_to(root).as_posix(): read(p)
                         for p in drivers},
        "tests_text": tests_text,
        "readme": readme,
    }


def check(reg):
    """Return the list of violations (empty == clean)."""
    bad = []
    knobs = reg["knobs"]
    for knob in sorted(knobs):
        if knob not in reg["from_env"]:
            bad.append(
                f"knob {knob}: getenv'd in src/ but not parsed in "
                f"RuntimeOptions::fromEnv (src/runtime/options.hh)")
        if knob not in reg["tests_text"]:
            bad.append(f"knob {knob}: not exercised by any tests/*.cc")
        if knob not in reg["readme"]:
            bad.append(f"knob {knob}: not documented in README.md")
    for path, text in sorted(reg["drivers_text"].items()):
        for knob in sorted(set(GETENV_RE.findall(text))):
            bad.append(
                f"{path}: driver reads {knob} with getenv; take it "
                f"from RuntimeOptions::fromEnv (src/runtime/options.hh)")

    documented = set(README_TOKEN_RE.findall(reg["readme"]))
    for token in sorted(documented - knobs - KNOB_ALLOWLIST):
        bad.append(
            f"README documents {token} but no src/ code reads it "
            f"(stale doc, or add it to KNOB_ALLOWLIST if it is not "
            f"an env knob)")

    for site in sorted(reg["sites"]):
        if not re.search(r'"%s"' % re.escape(site),
                         reg["tests_text"]):
            bad.append(
                f"failpoint site '{site}': no tests/*.cc arms or "
                f"names it")
        if f"`{site}`" not in reg["readme"]:
            bad.append(
                f"failpoint site '{site}': missing from README's "
                f"named-sites list (search for 'Named sites:')")

    # README sites that do not exist in code. Sites are written as
    # `backticked_lowercase` in the named-sites sentence; extract
    # just that sentence to avoid matching unrelated code spans.
    m = re.search(r"Named sites:(.*?)\.\s", reg["readme"], re.S)
    if not m:
        bad.append("README.md lost its 'Named sites:' list")
    else:
        for doc_site in re.findall(r"`([a-z][a-z0-9_]*)`", m.group(1)):
            if doc_site not in reg["sites"]:
                bad.append(
                    f"README names failpoint site '{doc_site}' but "
                    f"no src/ site evaluates it")
    return bad


def self_test():
    """Seed each violation class into a copy of the real registries
    and assert the checker reports it."""
    failures = []

    def expect(label, mutate, needle):
        reg = collect()
        mutate(reg)
        found = check(reg)
        if not any(needle in v for v in found):
            failures.append(
                f"self-test '{label}': seeded violation not "
                f"detected (wanted a report containing {needle!r})")

    expect("unparsed knob",
           lambda r: r["knobs"].add("SE_SELFTEST_BOGUS"),
           "SE_SELFTEST_BOGUS")
    expect("driver-side getenv",
           lambda r: r["drivers_text"].update(
               {"bench/selftest.cc":
                'int t = atoi(std::getenv("SE_SELFTEST_DRIVER"));'}),
           "SE_SELFTEST_DRIVER")
    expect("undocumented README token",
           lambda r: r.update(
               readme=r["readme"] + "\n`SE_SELFTEST_STALE` doc\n"),
           "SE_SELFTEST_STALE")
    expect("untested failpoint site",
           lambda r: r["sites"].add("selftest_bogus_site"),
           "selftest_bogus_site")
    expect("stale README site",
           lambda r: r.update(readme=r["readme"].replace(
               "Named sites: ",
               "Named sites: `selftest_stale_site`, ")),
           "selftest_stale_site")

    if failures:
        print("check_env_knobs SELF-TEST FAILED:", file=sys.stderr)
        for f in failures:
            print("  " + f, file=sys.stderr)
        return 1
    print("check_env_knobs self-test OK: all 5 seeded violation "
          "classes detected")
    return 0


def main(argv):
    if "--self-test" in argv:
        return self_test()
    bad = check(collect())
    if bad:
        print(f"check_env_knobs: {len(bad)} violation(s):",
              file=sys.stderr)
        for v in bad:
            print("  " + v, file=sys.stderr)
        return 1
    reg = collect()
    print(f"check_env_knobs: OK ({len(reg['knobs'])} knobs, "
          f"{len(reg['sites'])} failpoint sites — all parsed, "
          f"tested and documented)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
