"""End-to-end benchmark of the ``repro`` command line and design API.

See ``bench/README.md`` for the workloads and metrics, and
``python -m bench --help`` for the commands.
"""
