#!/usr/bin/env python3
"""Fail when an int8 AVX-512 VNNI inner loop copies vector registers.

gcc sometimes keeps a loop-carried accumulator in one zmm register and
copies it to another on every iteration (``vmovdqa64 %zmm3,%zmm7``). The
copies cost as much as the ``vpdpwssd`` they surround and change no result,
so no test notices them. This check reads the disassembly of the nn library
and counts them.

For every symbol ``s8_run_vnni<Args>`` (the AVX-512 VNNI instantiation of an
int8 kernel's tier loop, one per kernel), it finds each innermost loop that holds
a ``vpdpwssd``. A loop is a backward jump and the instructions from its
target up to it; it is innermost when no other backward jump lies inside
it. The loop fails when its zmm-to-zmm moves exceed the ceiling that
CEILINGS sets for the symbol's kernel. The check also fails when a kernel
in CEILINGS has no such loop (the pattern no longer matches what it
guards) or when a ``s8_run_vnni`` kernel has no ceiling.

The ceilings are gcc's: clang allocates registers differently.

Usage (from the repo root, after a Release build):
  python3 scripts/check_kloops.py build/libiob_nn.a
  python3 scripts/check_kloops.py --self-test    # on planted disassembly

Exit status is non-zero, with the offending loops listed, on any failure.
"""

import argparse
import re
import subprocess
import sys

# Most zmm-to-zmm moves allowed in one innermost vpdpwssd loop, per kernel
# (the template argument of `s8_run_vnni`): `S8Gemm` is the int8 GEMM (its
# 4 x 64 register tile and narrower tiles), `DwS8` the int8 depthwise step.
CEILINGS = {
    "S8Gemm": 0,
    "DwS8": 0,
}

SYMBOL = re.compile(r"^[0-9a-f]+ <(?P<name>.*)>:$")
INSN = re.compile(r"^\s*(?P<addr>[0-9a-f]+):\s+(?P<text>.*)$")
KERNEL = re.compile(r"s8_run_vnni<(?:[\w:]*::)?(?:\(anonymous namespace\)::)?(?P<args>\w+)>")
TARGET = re.compile(r"^(?P<target>[0-9a-f]+)\b")
ZMM_MOVE = re.compile(r"^vmov\w*\s+%zmm\d+,%zmm\d+$")
PREFIXES = {"bnd", "notrack", "rep", "repz", "repnz", "lock"}


def parse(disassembly):
    """{symbol name: [(address, mnemonic, operands)]} of a GNU objdump -d -C
    --no-show-raw-insn listing."""
    symbols = {}
    current = None
    for line in disassembly.splitlines():
        m = SYMBOL.match(line)
        if m:
            current = symbols.setdefault(m.group("name"), [])
            continue
        m = INSN.match(line)
        if m is None or current is None:
            continue
        words = m.group("text").split(None, 1)
        while len(words) == 2 and words[0] in PREFIXES:
            words = words[1].split(None, 1)
        if not words:
            continue
        operands = words[1].strip() if len(words) == 2 else ""
        current.append((int(m.group("addr"), 16), words[0], operands))
    return symbols


def innermost_loops(insns):
    """[(first index, last index)] of the innermost loops in one symbol."""
    index = {addr: i for i, (addr, _, _) in enumerate(insns)}
    loops = []
    for i, (addr, mnemonic, operands) in enumerate(insns):
        if not mnemonic.startswith("j"):
            continue
        m = TARGET.match(operands)
        if m is None:
            continue
        target = int(m.group("target"), 16)
        if target <= addr and target in index:
            loops.append((index[target], i))
    return [(a, b) for a, b in loops
            if not any((a, b) != (c, d) and a <= d < b for c, d in loops)]


def check(disassembly):
    """Failure messages (empty when the library passes) and report lines."""
    failures, report = [], []
    seen = set()
    for name, insns in parse(disassembly).items():
        m = KERNEL.search(name)
        if m is None:
            continue
        kernel = m.group("args")
        if kernel not in CEILINGS:
            failures.append(f"{name}: kernel {kernel} has no ceiling in CEILINGS")
            continue
        for a, b in innermost_loops(insns):
            body = insns[a:b + 1]
            if not any(mn == "vpdpwssd" for _, mn, _ in body):
                continue
            seen.add(kernel)
            moves = sum(1 for _, mn, ops in body if ZMM_MOVE.match(f"{mn} {ops}"))
            line = (f"{kernel}: loop at {insns[a][0]:#x}, {len(body)} instructions, "
                    f"{moves} zmm-to-zmm moves (ceiling {CEILINGS[kernel]})")
            report.append(line)
            if moves > CEILINGS[kernel]:
                failures.append(line)
    for kernel in sorted(set(CEILINGS) - seen):
        failures.append(f"{kernel}: no innermost vpdpwssd loop in s8_run_vnni<{kernel}>")
    return failures, report


def disassemble(library):
    return subprocess.run(["objdump", "-d", "-C", "--no-show-raw-insn", library],
                          check=True, capture_output=True, text=True).stdout


# ---- self-test --------------------------------------------------------------------

def listing(symbols):
    """A planted objdump listing: {name: [instruction text]}, a jump's target
    given as the index of the instruction it jumps to ("jne @2")."""
    out, addr = [], 0x1000
    for name, insns in symbols.items():
        out.append(f"{addr:016x} <{name}>:")
        addrs = [addr + 4 * i for i in range(len(insns))]
        for a, text in zip(addrs, insns):
            text = re.sub(r"@(\d+)", lambda m: f"{addrs[int(m.group(1))]:x} <{name}+0x0>", text)
            out.append(f"    {a:x}:\t{text}")
        addr += 0x1000
        out.append("")
    return "\n".join(out)


GEMM = "void iob::nn::(anonymous namespace)::s8_run_vnni<iob::nn::(anonymous namespace)::S8Gemm>" \
       "(iob::nn::(anonymous namespace)::S8Gemm const&)"
DW = "void iob::nn::(anonymous namespace)::s8_run_vnni<iob::nn::(anonymous namespace)::DwS8>" \
     "(iob::nn::(anonymous namespace)::DwS8 const&)"
CLEAN = ["vmovdqu64 (%rax),%zmm1", "vpdpwssd (%rdx),%zmm1,%zmm0", "add $0x40,%rax",
         "cmp %rax,%rcx", "jne @0", "ret"]


def self_test():
    moved = ["vmovdqu64 (%rax),%zmm1", "vpdpwssd (%rdx),%zmm1,%zmm0",
             "vmovdqa64 %zmm0,%zmm5", "add $0x40,%rax", "jne @0", "ret"]
    nested = ["vmovdqa64 %zmm0,%zmm5", "vmovdqu64 (%rax),%zmm1", "vpdpwssd (%rdx),%zmm1,%zmm0",
              "jne @1", "vmovdqa64 %zmm5,%zmm6", "jmp @0", "ret"]
    memory_only = ["vmovdqu64 (%rax),%zmm1", "vmovdqu64 %zmm1,(%rbx)",
                   "vpdpwssd %zmm2,%zmm1,%zmm0", "notrack jne @0", "ret"]
    no_vnni = ["vmovdqa64 %zmm0,%zmm5", "vpaddd %zmm1,%zmm0,%zmm0", "jne @0"]
    after_clean = [t.replace("@0", f"@{len(CLEAN)}") for t in no_vnni]
    other = GEMM.replace("S8Gemm", "Pool")
    cases = [
        ("clean loops pass", {GEMM: CLEAN, DW: CLEAN}, True),
        ("a zmm move in a depthwise loop fails", {GEMM: CLEAN, DW: moved}, False),
        ("a zmm move in a GEMM loop fails", {GEMM: moved, DW: CLEAN}, False),
        ("moves outside the innermost loop pass", {GEMM: CLEAN, DW: nested}, True),
        ("loads, stores and prefixed jumps pass", {GEMM: CLEAN, DW: memory_only}, True),
        ("a loop without vpdpwssd is not checked", {GEMM: CLEAN + after_clean, DW: CLEAN}, True),
        ("a kernel with no vpdpwssd loop fails", {GEMM: CLEAN, DW: no_vnni}, False),
        ("a missing kernel fails", {GEMM: CLEAN}, False),
        ("a kernel without a ceiling fails", {GEMM: CLEAN, DW: CLEAN, other: CLEAN}, False),
    ]
    failed = 0
    for label, symbols, want_pass in cases:
        failures, _ = check(listing(symbols))
        if (not failures) != want_pass:
            failed += 1
            print(f"self-test FAILED: {label}: {failures}", file=sys.stderr)
    if failed:
        print(f"\n{failed} of {len(cases)} self-test case(s) failed", file=sys.stderr)
        return 1
    print(f"all {len(cases)} self-test cases pass")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("library", nargs="?", help="the Release libiob_nn.a")
    mode.add_argument("--self-test", action="store_true",
                      help="check the loop finder on planted disassembly")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    failures, report = check(disassemble(args.library))
    for line in report:
        print(line)
    if failures:
        print("\nerror: register moves in int8 VNNI inner loops:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
