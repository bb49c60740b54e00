#!/usr/bin/env python3
"""Fail when src/ code is reached by nothing but its own module or the tests.

Code that only its own tests reach is code nothing runs: wire it into a data
path or delete it with its tests. Two rules enforce that:

* Header rule (default). A header ``src/<dir>/<name>.hpp`` counts as reached
  when some file under src/, bench/, examples/ or perfbench/ other than the
  header itself and its own ``<name>.cpp`` ``#include``s it as
  ``"<dir>/<name>.hpp"``. This also covers header-only modules, which the
  function rule cannot see.
* Function rule (``--functions``). Every out-of-line function in namespace
  ``iob`` that a ``libiob_*.a`` defines must be linked into some product
  binary: a ``bench_*``, an ``example_*`` or ``perfbench``. Test binaries do
  not count. The rule reads a census build, made with no inlining and with
  section garbage collection, so a binary holds exactly the functions its
  call graph reaches; a class nothing constructs loses its vtable, and with
  it every out-of-line override. Names are compared demangled, so the
  C1/C2 constructor and D0/D1/D2 destructor variants collapse to one.

An unreached function passes only when an ALLOWLIST entry names it, with a
category and a reason. The allowed categories are:

  (a) an oracle that a remaining test compares product output against: a
      round-trip decoder, a scalar reference kernel, an analytic bound, the
      canonical serialization;
  (b) a test hook that forces a product path;
  (c) an accessor a remaining test needs to check a product invariant no
      other test checks;
  (d) a compiler-emitted special member;
  (e) ``sim::TraceSink::count`` and ``sim::TraceSink::to_string`` only,
      until a typed trace replaces them.

An entry matches the qualified name (``iob::ns::Class::fn``, which also
covers lambdas inside it) or, when it ends in a parameter list, the exact
demangled signature. An entry that matches no function the libraries
define fails the rule, so the list cannot rot.

The census build (gcc):

  FLAGS="-O1 -fno-inline -ffunction-sections -fdata-sections"
  cmake -B build-census -S . -G Ninja -DCMAKE_BUILD_TYPE=Debug \\
    -DCMAKE_CXX_FLAGS="$FLAGS" -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections
  cmake --build build-census
  cmake -S perfbench -B build-census-perfbench -G Ninja -DCMAKE_BUILD_TYPE=Debug \\
    -DCMAKE_CXX_FLAGS="$FLAGS" -DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections
  cmake --build build-census-perfbench --target perfbench

Usage (from the repo root):
  python3 scripts/check_reachable.py                 # header rule
  python3 scripts/check_reachable.py --functions build-census build-census-perfbench
  python3 scripts/check_reachable.py --self-test     # function rule on fixed nm listings

Exit status is non-zero, with the offending headers or functions listed, if
any exist.
"""

import argparse
import glob
import os
import re
import subprocess
import sys

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)
SCAN_DIRS = ("src", "bench", "examples", "perfbench")
SOURCE_EXTS = (".hpp", ".cpp")

IOB_MANGLED = ("_ZN3iob", "_ZNK3iob", "_ZZN3iob", "_ZZNK3iob")  # functions in iob::
TEXT_TYPES = frozenset("TtW")  # nm: global, local and weak code symbols
CLONE_RE = re.compile(r" \[clone [^\]]*\]")
ABI_TAG_RE = re.compile(r"\[abi:\w+\]")
ANON = "(anonymous namespace)"
CATEGORIES = frozenset("abcde")

# (name, category, reason). Keep sorted by name.
ALLOWLIST = [
    ("iob::comm::GilbertElliott::expected_loss", "a",
     "analytic mean loss the simulated burst-loss rate is checked against"),
    ("iob::comm::GilbertElliott::stationary_bad_fraction", "a",
     "analytic bad-state share the simulated state occupancy is checked against"),
    ("iob::core::fleet_results_csv", "a",
     "canonical CSV serialization the streamed sweep output is compared with"),
    ("iob::isa::(anonymous namespace)::decode_residual_blocks", "a",
     "part of BioCodec::decode, the round-trip oracle of BioCodec::encode"),
    ("iob::isa::BioCodec::decode", "a", "round-trip decoder of BioCodec::encode"),
    ("iob::isa::BitReader::read", "a", "bit reader of the BioCodec round-trip decoder"),
    ("iob::isa::GrayFrame::GrayFrame(iob::isa::GrayFrame const&)", "d",
     "implicit copy constructor"),
    ("iob::isa::HuffmanCodec::entropy_bits", "a",
     "Shannon bound the Huffman code's mean length is checked against"),
    ("iob::isa::MjpegDeltaDecoder", "a", "round-trip decoder of MjpegDeltaEncoder"),
    ("iob::isa::detail::get_varint", "a", "varint reader of the BioCodec round-trip decoder"),
    ("iob::isa::detail::huffman_unwrap", "a",
     "Huffman unwrapper of the BioCodec round-trip decoder"),
    ("iob::isa::detail::zz_decode_s32", "a", "zigzag decoder of the BioCodec round-trip decoder"),
    ("iob::isa::ifft", "a", "inverse of fft for the transform round-trip tests"),
    ("iob::nn::Layer::~Layer()", "d", "empty virtual destructor of an abstract base"),
    ("iob::nn::dequantize", "a", "decoder the int8 quantizer's round-trip error is bounded against"),
    ("iob::nn::dequantize_f32", "a",
     "scalar reference of the int8 GEMM's fused dequantizing epilogue"),
    ("iob::nn::deserialize_activation", "a", "round-trip decoder of serialize_activation"),
    ("iob::nn::quant_error_bound", "a", "analytic bound on the int8 quantizer's round-trip error"),
    ("iob::nn::requantize_s8", "a", "scalar reference of the int8 GEMM's fused requantizing epilogue"),
    ("iob::nn::set_dispatch_cap", "b",
     "forces each f32 and int8 kernel dispatch tier so the tiers can be compared bit for bit"),
    ("iob::sim::Accumulator::min", "c",
     "checks the hub's non-negative staging-delay clamp"),
    ("iob::sim::EventQueue::debug_counts", "c",
     "checks that no entry is lost or duplicated across the queue's bands"),
    ("iob::sim::TraceSink::count", "e", "trace inspection until typed trace records replace it"),
    ("iob::sim::TraceSink::to_string", "e", "trace inspection until typed trace records replace it"),
]


# ---- header rule ------------------------------------------------------------------


def own_files(header):
    """The header and its same-stem .cpp: the module that declares it."""
    return {os.path.normpath(header), os.path.normpath(header[:-len(".hpp")] + ".cpp")}


def unreached_headers(headers, sources):
    includers = {}  # "dir/name.hpp" -> files that include it
    for path, text in sources.items():
        for target in INCLUDE_RE.findall(text):
            includers.setdefault(target, set()).add(path)
    unreached = []
    for header in headers:
        key = os.path.relpath(header, "src").replace(os.sep, "/")
        if not includers.get(key, set()) - own_files(header):
            unreached.append(f"{header}: included by nothing outside its own module")
    return unreached


def check_headers():
    headers = sorted(glob.glob("src/**/*.hpp", recursive=True))
    if not headers:
        print("error: no headers under src/ (run from the repo root)", file=sys.stderr)
        return 2
    sources = {}  # normalized path -> file text
    for top in SCAN_DIRS:
        for path in glob.glob(f"{top}/**/*", recursive=True):
            if path.endswith(SOURCE_EXTS):
                with open(path, encoding="utf-8") as f:
                    sources[os.path.normpath(path)] = f.read()
    unreached = unreached_headers(headers, sources)
    if unreached:
        print("\n".join(unreached), file=sys.stderr)
        print(f"\n{len(unreached)} unreached header(s)", file=sys.stderr)
        return 1
    print(f"all {len(headers)} src/ headers are reached")
    return 0


# ---- function rule ----------------------------------------------------------------


def function_symbols(listing):
    """Mangled names of the iob:: functions an `nm --defined-only` listing defines."""
    found = set()
    for line in listing.splitlines():
        parts = line.split()
        if len(parts) >= 2 and parts[-2] in TEXT_TYPES and parts[-1].startswith(IOB_MANGLED):
            found.add(parts[-1])
    return found


def demangle(mangled):
    """Map each mangled name to its demangled name, clone suffixes and ABI tags dropped."""
    names = sorted(mangled)
    if not names:
        return {}
    out = subprocess.run(["c++filt"], input="\n".join(names) + "\n", capture_output=True,
                         text=True, check=True).stdout.splitlines()
    return {m: ABI_TAG_RE.sub("", CLONE_RE.sub("", d)) for m, d in zip(names, out)}


def is_ident(s, i):
    return 0 <= i < len(s) and (s[i].isalnum() or s[i] == "_")


def qualified_name(signature):
    """`iob::ns::f` from `[ret ]iob::ns::f<T>(args) const[::{lambda...}]`."""
    s = signature.replace(ANON, "{anon}")
    depth, start, i = 0, 0, 0
    while i < len(s):
        end = i + len("operator")
        if s.startswith("operator", i) and not is_ident(s, i - 1) and not is_ident(s, end):
            # operator(), operator<, operator<<, ...: the parameter list follows the symbol.
            i = s.index("(", end + 2 if s.startswith("()", end) else end)
            break
        c = s[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
        elif c == " " and depth == 0:
            start = i + 1  # what came before was a return type
        elif c == "(" and depth == 0:
            break
        i += 1
    return s[start:i].replace("{anon}", ANON)


def allow_matches(entry, signature):
    if entry.endswith((")", ") const")):
        return entry == signature
    name = qualified_name(signature)
    return name == entry or name.startswith(entry + "::")


def is_product(binary):
    return binary.startswith(("bench_", "example_")) or binary == "perfbench"


def unreached_functions(libraries, binaries, allowlist):
    """Error lines for the function rule.

    libraries: `nm --defined-only` listings of the libiob_*.a archives;
    binaries: basename -> `nm --defined-only` listing of each linked binary;
    allowlist: (name, category, reason) entries.
    """
    defined = set().union(*map(function_symbols, libraries))
    linked = {name: function_symbols(text) for name, text in binaries.items()}
    names = demangle(defined.union(*linked.values()))
    product, tests = set(), set()
    for binary, symbols in linked.items():
        (product if is_product(binary) else tests).update(names[s] for s in symbols)

    errors = []
    library_fns = {names[s] for s in defined}
    for entry, category, reason in allowlist:
        if category not in CATEGORIES or not reason:
            errors.append(f"allowlist entry {entry}: needs a category a-e and a reason")
        if not any(allow_matches(entry, fn) for fn in library_fns):
            errors.append(f"allowlist entry {entry}: matches no library function; delete it")
    for fn in sorted(library_fns - product):
        if not any(allow_matches(entry, fn) for entry, _, _ in allowlist):
            where = "only tests link it" if fn in tests else "no binary links it"
            errors.append(f"{fn}: {where}")
    return errors


def nm(path):
    return subprocess.run(["nm", "--defined-only", path], capture_output=True, text=True,
                          check=True).stdout


def is_elf_executable(path):
    if not (os.path.isfile(path) and os.access(path, os.X_OK)):
        return False
    with open(path, "rb") as f:
        return f.read(4) == b"\x7fELF"


def check_functions(build_dirs):
    libraries, binaries = [], {}
    for build in build_dirs:
        libraries += [nm(a) for a in sorted(glob.glob(f"{build}/**/libiob_*.a", recursive=True))]
        for entry in sorted(os.listdir(build)):
            path = os.path.join(build, entry)
            if is_elf_executable(path):
                binaries[entry] = binaries.get(entry, "") + nm(path)
    products = sorted(b for b in binaries if is_product(b))
    if not (libraries and "perfbench" in products
            and any(b.startswith("bench_") for b in products)
            and any(b.startswith("example_") for b in products)):
        print(f"error: no census build of the libraries, benches, examples and perfbench in "
              f"{' '.join(build_dirs)} (see --help)", file=sys.stderr)
        return 2
    errors = unreached_functions(libraries, binaries, ALLOWLIST)
    if errors:
        print("\n".join(errors), file=sys.stderr)
        print(f"\n{len(errors)} function rule violation(s) across {len(products)} product "
              "binaries", file=sys.stderr)
        return 1
    print(f"every iob:: function is linked into one of {len(products)} product binaries "
          f"or allowlisted ({len(ALLOWLIST)} entries)")
    return 0


# ---- self-test --------------------------------------------------------------------


def listing(*symbols):
    """A fixed `nm --defined-only` listing: (type, mangled name) pairs."""
    return "\n".join(f"0000000000000000 {kind} {name}" for kind, name in symbols)


def self_test():
    variance = ("T", "_ZNK3iob3sim11Accumulator8varianceEv")  # Accumulator::variance() const
    cap = ("T", "_ZN3iob2nn16set_dispatch_capEi")  # set_dispatch_cap(int)
    ctor = [("T", "_ZN3iob3sim9SimulatorC1Em"), ("T", "_ZN3iob3sim9SimulatorC2Em")]
    dtor = [("W", "_ZN3iob2nn5LayerD0Ev"), ("W", "_ZN3iob2nn5LayerD1Ev"),
            ("W", "_ZN3iob2nn5LayerD2Ev")]
    perf_only = ("T", "_ZN3iob4core11fleet_pointB5cxx11Ei")  # fleet_point[abi:cxx11](int)
    # A final class nothing but a test constructs: under --gc-sections no
    # product keeps its vtable, so its constructor and override are unlinked.
    pool = [("V", "_ZTVN3iob2nn6Pool2DE"), ("W", "_ZN3iob2nn6Pool2DC2Ei"),
            ("T", "_ZNK3iob2nn6Pool2D12forward_intoEPKfPfi")]
    cap_entry = ("iob::nn::set_dispatch_cap", "b", "forces a dispatch tier")

    def run(lib, product=(), perfbench=(), test=(), allowlist=(cap_entry,)):
        binaries = {"bench_x": listing(*product), "perfbench": listing(*perfbench),
                    "x_test": listing(*test)}
        return unreached_functions([listing(*lib)], binaries, list(allowlist))

    cases = [
        ("a test-only symbol fails",
         run([variance, cap], test=[variance, cap]),
         ["iob::sim::Accumulator::variance() const: only tests link it"]),
        ("a symbol no binary links fails",
         run([variance, cap], test=[cap]),
         ["iob::sim::Accumulator::variance() const: no binary links it"]),
        ("an allowlisted symbol passes", run([cap], test=[cap]), []),
        ("a stale allowlist entry fails",
         run([variance], product=[variance]),
         ["allowlist entry iob::nn::set_dispatch_cap: matches no library function; "
          "delete it"]),
        ("an entry without a category fails",
         run([cap], test=[cap], allowlist=[("iob::nn::set_dispatch_cap", "z", "x")]),
         ["allowlist entry iob::nn::set_dispatch_cap: needs a category a-e and a reason"]),
        ("ctor/dtor variants are ignored",
         run(ctor + dtor, product=ctor[:1] + dtor[2:], allowlist=[]), []),
        ("a symbol linked only into perfbench counts as reached",
         run([perf_only], perfbench=[perf_only], allowlist=[]), []),
        ("an unconstructed final class's members fail",
         run(pool, test=pool, allowlist=[]),
         ["iob::nn::Pool2D::Pool2D(int): only tests link it",
          "iob::nn::Pool2D::forward_into(float const*, float*, int) const: only tests link it"]),
    ]
    names = [
        ("void iob::nn::gemm<4, 8>(float const*, int)", "iob::nn::gemm<4, 8>"),
        ("iob::isa::(anonymous namespace)::helper(int)", "iob::isa::(anonymous namespace)::helper"),
        ("iob::sim::Simulator::every(double)::{lambda()#1}::operator()() const",
         "iob::sim::Simulator::every"),
        ("iob::sim::Callback::operator()()", "iob::sim::Callback::operator()"),
        ("bool iob::nn::operator<<(iob::nn::Shape const&, int)", "iob::nn::operator<<"),
    ]
    failed = 0
    for label, got, want in cases:
        if got != want:
            failed += 1
            print(f"FAIL {label}: got {got}, want {want}", file=sys.stderr)
    for signature, want in names:
        if qualified_name(signature) != want:
            failed += 1
            print(f"FAIL qualified_name({signature!r}) = {qualified_name(signature)!r}, "
                  f"want {want!r}", file=sys.stderr)
    total = len(cases) + len(names)
    if failed:
        print(f"\n{failed} of {total} self-test case(s) failed", file=sys.stderr)
        return 1
    print(f"all {total} self-test cases pass")
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--functions", nargs="+", metavar="BUILD_DIR",
                      help="run the function rule on these census build directories")
    mode.add_argument("--self-test", action="store_true",
                      help="run the function rule on fixed nm listings")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.functions:
        return check_functions(args.functions)
    return check_headers()


if __name__ == "__main__":
    sys.exit(main())
