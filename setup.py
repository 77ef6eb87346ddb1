"""Setuptools shim so `pip install -e .` works without the `wheel` package
(this environment is offline and cannot fetch PEP 517 build dependencies).
"""

from setuptools import setup

setup()
