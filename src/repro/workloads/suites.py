"""The paper's test suites, rebuilt as synthetic workloads.

* **T-I** — all C/C++ programs of SPEC CPU 2006 and 2017 (performance and
  diffing-accuracy experiments);
* **T-II** — the 108 CoreUtils 8.32 programs (diffing-accuracy experiments);
* **T-III** — five embedded programs, each containing at least one function
  with a known CVE (Table 3; vulnerable-code-hiding experiment).

Each program is a deterministic :class:`~repro.workloads.synth.ProgramProfile`
keyed by its name, so every experiment regenerates the same binaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..ir.module import Program
from ..obs import layer
from ..utils import stable_hash
from .synth import ProgramProfile, VulnerableFunctionSpec, synthesize_program

SPEC_CPU_2006 = (
    "400.perlbench", "401.bzip2", "403.gcc", "429.mcf", "433.milc",
    "444.namd", "445.gobmk", "447.dealII", "450.soplex", "453.povray",
    "456.hmmer", "458.sjeng", "462.libquantum", "464.h264ref", "470.lbm",
    "471.omnetpp", "473.astar", "482.sphinx3", "483.xalancbmk",
)

SPEC_CPU_2017 = (
    "500.perlbench_r", "502.gcc_r", "505.mcf_r", "508.namd_r", "510.parest_r",
    "511.povray_r", "519.lbm_r", "520.omnetpp_r", "523.xalancbmk_r",
    "525.x264_r", "526.blender_r", "531.deepsjeng_r", "538.imagick_r",
    "541.leela_r", "544.nab_r", "557.xz_r", "600.perlbench_s", "602.gcc_s",
    "605.mcf_s", "619.lbm_s", "620.omnetpp_s", "623.xalancbmk_s", "625.x264_s",
    "631.deepsjeng_s", "638.imagick_s", "641.leela_s", "644.nab_s", "657.xz_s",
)

# Figure 9 uses the SPECint 2006 and SPECspeed 2017 C/C++ programs.
SPECINT_2006 = (
    "400.perlbench", "401.bzip2", "429.mcf", "445.gobmk", "456.hmmer",
    "458.sjeng", "462.libquantum", "464.h264ref", "473.astar", "483.xalancbmk",
)
SPECSPEED_2017 = (
    "600.perlbench_s", "605.mcf_s", "620.omnetpp_s", "623.xalancbmk_s",
    "625.x264_s", "631.deepsjeng_s", "641.leela_s", "657.xz_s",
)

COREUTILS_8_32 = (
    "arch", "b2sum", "base32", "base64", "basename", "basenc", "cat", "chcon",
    "chgrp", "chmod", "chown", "chroot", "cksum", "comm", "cp", "csplit",
    "cut", "date", "dd", "df", "dir", "dircolors", "dirname", "du", "echo",
    "env", "expand", "expr", "factor", "false", "fmt", "fold", "groups",
    "head", "hostid", "id", "install", "join", "kill", "link", "ln", "logname",
    "ls", "md5sum", "mkdir", "mkfifo", "mknod", "mktemp", "mv", "nice", "nl",
    "nohup", "nproc", "numfmt", "od", "paste", "pathchk", "pinky", "pr",
    "printenv", "printf", "ptx", "pwd", "readlink", "realpath", "rm", "rmdir",
    "runcon", "seq", "sha1sum", "sha224sum", "sha256sum", "sha384sum",
    "sha512sum", "shred", "shuf", "sleep", "sort", "split", "stat", "stdbuf",
    "stty", "sum", "sync", "tac", "tail", "tee", "test", "timeout", "touch",
    "tr", "true", "truncate", "tsort", "tty", "uname", "unexpand", "uniq",
    "unlink", "uptime", "users", "vdir", "wc", "who", "whoami", "yes",
    "[", "md5sum.textutils",
)

# Table 3: vulnerable functions of the T-III programs.
EMBEDDED_VULNERABILITIES: Dict[str, Tuple[Tuple[str, Tuple[str, ...]], ...]] = {
    "jerryscript": (
        ("opfunc_spread_arguments", ("CVE-2020-13991",)),
    ),
    "quickjs": (
        ("compute_stack_size_rec", ("CVE-2020-22876",)),
    ),
    "busybox-1.33.1": (
        ("getvar_s", ("CVE-2021-42382",)),
        ("handle_special", ("CVE-2021-42384",)),
    ),
    "openssl-1.1.1": (
        ("init_sig_algs", ("CVE-2021-3449",)),
        ("EC_GROUP_set_generator", ("CVE-2019-1547",)),
    ),
    "libcurl-7.34.0": (
        ("suboption", ("CVE-2021-22925", "CVE-2021-22898")),
        ("init_wc_data", ("CVE-2020-8285",)),
        ("conn_is_conn", ("CVE-2020-8231",)),
        ("tftp_connect", ("CVE-2019-5482", "CVE-2019-5436")),
        ("ftp_state_list", ("CVE-2018-1000120",)),
        ("alloc_addbyter", ("CVE-2016-8618",)),
        ("Curl_cookie_getlist", ("CVE-2016-8623",)),
        ("ConnectionExists", ("CVE-2016-8616", "CVE-2016-0755",
                              "CVE-2014-0138", "CVE-2015-3143")),
    ),
}

_VULN_KERNEL_KINDS = ("string_scan", "state_machine", "checksum",
                      "binary_search", "histogram", "rle_length")


@dataclass
class WorkloadProgram:
    """A named workload: build() synthesises its IR program on demand."""

    name: str
    suite: str
    profile: ProgramProfile

    @layer("workloads.build")
    def build(self) -> Program:
        return synthesize_program(self.profile)

    @property
    def vulnerable_functions(self) -> List[str]:
        return [spec.function_name for spec in self.profile.vulnerable]


def _profile_for(name: str, suite: str, kernel_count: int, driver_count: int,
                 iterations: int,
                 vulnerable: Sequence[VulnerableFunctionSpec] = ()) -> ProgramProfile:
    seed = stable_hash(suite, name)
    return ProgramProfile(
        name=name, suite=suite, seed=seed,
        kernel_count=kernel_count, driver_count=driver_count,
        iterations=iterations, vulnerable=tuple(vulnerable))


def spec2006_programs() -> List[WorkloadProgram]:
    programs = []
    for index, name in enumerate(SPEC_CPU_2006):
        kernel_count = 10 + (index % 4) * 2
        programs.append(WorkloadProgram(
            name, "spec2006",
            _profile_for(name, "spec2006", kernel_count,
                         driver_count=4 + index % 3, iterations=3)))
    return programs


def spec2017_programs() -> List[WorkloadProgram]:
    programs = []
    for index, name in enumerate(SPEC_CPU_2017):
        kernel_count = 11 + (index % 5) * 2
        programs.append(WorkloadProgram(
            name, "spec2017",
            _profile_for(name, "spec2017", kernel_count,
                         driver_count=4 + index % 4, iterations=3)))
    return programs


def coreutils_programs() -> List[WorkloadProgram]:
    programs = []
    for index, name in enumerate(COREUTILS_8_32):
        kernel_count = 4 + (index % 4)
        programs.append(WorkloadProgram(
            name, "coreutils",
            _profile_for(name, "coreutils", kernel_count,
                         driver_count=1 + index % 2, iterations=2)))
    return programs


def embedded_programs() -> List[WorkloadProgram]:
    programs = []
    for index, (name, vulns) in enumerate(sorted(EMBEDDED_VULNERABILITIES.items())):
        specs = [VulnerableFunctionSpec(
                     function_name=function_name, cves=cves,
                     kernel_kind=_VULN_KERNEL_KINDS[(index + j) % len(_VULN_KERNEL_KINDS)])
                 for j, (function_name, cves) in enumerate(vulns)]
        kernel_count = 14 + index
        programs.append(WorkloadProgram(
            name, "embedded",
            _profile_for(name, "embedded", kernel_count, driver_count=4,
                         iterations=3, vulnerable=specs)))
    return programs


_SUITES = {
    "spec2006": spec2006_programs,
    "spec2017": spec2017_programs,
    "coreutils": coreutils_programs,
    "embedded": embedded_programs,
}


def suite_names() -> List[str]:
    return sorted(_SUITES)


def load_suite(name: str) -> List[WorkloadProgram]:
    """Load a suite by name (``spec2006``, ``spec2017``, ``coreutils``,
    ``embedded``); ``t1`` / ``t2`` / ``t3`` aliases follow the paper."""
    aliases = {"t1": None, "t2": "coreutils", "t3": "embedded"}
    if name == "t1":
        return spec2006_programs() + spec2017_programs()
    name = aliases.get(name, name) or name
    if name not in _SUITES:
        raise KeyError(f"unknown suite {name!r}; expected one of "
                       f"{sorted(_SUITES) + ['t1', 't2', 't3']}")
    return _SUITES[name]()


def find_program(name: str) -> WorkloadProgram:
    for suite in _SUITES.values():
        for program in suite():
            if program.name == name:
                return program
    raise KeyError(f"unknown workload program {name!r}")
