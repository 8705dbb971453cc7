"""Legacy setup shim for offline editable installs.

The hermetic environment has setuptools but not `wheel`, so PEP 660
editable installs (`pip install -e .` via pyproject build backends)
fail with `invalid command 'bdist_wheel'`.  This shim lets pip use the
legacy `setup.py develop` path.  Project metadata lives here, and
pytest's configuration in pytest.ini.
"""

from setuptools import find_packages, setup

setup(
    name="lockdown-effect",
    version="1.0.0",
    description=(
        "Reproduction of 'The Lockdown Effect: Implications of the "
        "COVID-19 Pandemic on Internet Traffic' (IMC 2020)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=["numpy>=1.21"],
    entry_points={
        "console_scripts": ["lockdown-effect=repro.cli:main"],
    },
)
