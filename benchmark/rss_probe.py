"""Run Python commands one after another; report each one's peak resident set.

    python3 benchmark/rss_probe.py < COMMANDS

COMMANDS is a JSON list of argument lists for the Python interpreter.  The
commands run in order, with standard output discarded, and the result is
printed as a JSON list of [exit code, peak RSS in kB], one per command.

On Linux a process's ru_maxrss also counts the memory of the process that
started it, since exec keeps the high-water mark of the memory it replaces.
run.py holds the models, the reference and the certificates, and would
inflate every figure; so it starts the commands through this small process.
"""

import json
import os
import subprocess
import sys


def main():
    results = []
    for args in json.load(sys.stdin):
        proc = subprocess.Popen([sys.executable, *args], stdout=subprocess.DEVNULL)
        _pid, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
        results.append([proc.returncode, usage.ru_maxrss])
    json.dump(results, sys.stdout)


if __name__ == "__main__":
    main()
