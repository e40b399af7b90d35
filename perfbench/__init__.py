"""Serving benchmark of the GTS reproduction.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>``
serves a workload's request streams through :class:`repro.GTSService`,
checks every answer against an oracle and prints the workload's metrics; see
:mod:`perfbench.run` for the command line and :mod:`perfbench.workloads` for
what each workload exercises.
"""
