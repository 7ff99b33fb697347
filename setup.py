"""Packaging for the POLARIS reproduction.

Kept as a plain ``setup.py`` (no wheel/pyproject machinery required in the
reproduction container); ``pip install -e .`` exposes the ``repro``
package, the ``polaris-campaign`` campaign-orchestration CLI and the
``polaris-lint`` static-analysis CLI (also runnable without installing as
``python tools/polaris_lint``).
"""
from setuptools import find_packages, setup

setup(
    name="polaris-repro",
    version="1.0.0",
    description=("Reproduction of POLARIS: XAI-guided power side-channel "
                 "leakage mitigation (DAC 2025), with distributed TVLA "
                 "campaign orchestration and a live multi-tenant "
                 "assessment service"),
    package_dir={"": "src", "polaris_lint": "tools/polaris_lint"},
    packages=find_packages("src") + ["polaris_lint", "polaris_lint.rules"],
    python_requires=">=3.10",
    install_requires=["numpy>=2", "scipy"],
    entry_points={
        "console_scripts": [
            "polaris-campaign = repro.campaign.cli:main",
            "polaris-lint = polaris_lint.cli:main",
        ],
    },
)
