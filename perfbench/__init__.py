"""The repository benchmark (see ``perfbench/run.py`` for usage).

It measures the program from outside: it drives the public entry points
(``run_rpc_experiment``, ``run_smallbank``, ``ProcRpcClient`` and the
``repro.net.worker`` server process), times and counts the calls into each
layer's public functions with wrappers installed for the duration of a run,
and profiles a separate traced run.  Nothing under ``src/`` is modified.
"""
