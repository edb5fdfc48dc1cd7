"""Registry of the 18 applications and their 28 run configurations.

Carries everything the study needs: the proxy entry point, the Table 5
run description, the Table 2 build/link metadata, and the *expected*
paper results (Table 3 cell, Table 4 conflict flags) that benchmarks and
integration tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.apps import (
    checkpoint, chombo, enzo, flash, gamess, gtc, haccio, lammps,
    lbann, macsio, milc, nek5000, nwchem, paradis, pf3d, qmcpack,
    vasp, vpicio,
)
from repro.apps.base import AppConfig, AppProgram, run_application
from repro.posix.vfs import VirtualFileSystem
from repro.tracer.trace import Trace


@dataclass(frozen=True)
class RunVariant:
    """One (application, I/O library, options) run configuration."""

    application: str
    io_library: str
    program: AppProgram
    options: dict[str, Any] = field(default_factory=dict)
    setup: Callable[[VirtualFileSystem, AppConfig], None] | None = None
    #: expected paper results, used by benches/tests for shape checks
    expected_xy: str = ""
    expected_pattern: str = ""             # Table 3 column
    expected_conflicts: tuple[str, ...] = ()  # Table 4 marks, session sem.
    #: whether commit semantics removes all conflicts (FLASH only)
    commit_clean: bool = False
    variant_suffix: str = ""

    @property
    def label(self) -> str:
        base = f"{self.application}-{self.io_library}"
        return base + (f" {self.variant_suffix}" if self.variant_suffix
                       else "")

    def config(self, nranks: int = 8, seed: int = 7,
               clock_skew_us: float = 10.0,
               **overrides: Any) -> AppConfig:
        options = dict(self.options)
        options.update(overrides)
        return AppConfig(application=self.application,
                         io_library=self.io_library, nranks=nranks,
                         seed=seed, clock_skew_us=clock_skew_us,
                         options=options)

    def run(self, nranks: int = 8, seed: int = 7,
            clock_skew_us: float = 10.0,
            vfs: VirtualFileSystem | None = None,
            **overrides: Any) -> Trace:
        return run_application(
            self.config(nranks, seed, clock_skew_us, **overrides),
            self.program, setup=self.setup, vfs=vfs)


@dataclass(frozen=True)
class AppSpec:
    """One application: Table 5 description + Table 2 build info."""

    name: str
    version: str
    domain: str
    description: str            # Table 5 configuration description
    compiler: str               # Table 2
    mpi: str                    # Table 2
    hdf5: str                   # Table 2 (empty when unused)
    variants: tuple[RunVariant, ...]


def _v(app: str, lib: str, program: AppProgram, **kw: Any) -> RunVariant:
    return RunVariant(application=app, io_library=lib, program=program,
                      **kw)


APPLICATIONS: tuple[AppSpec, ...] = (
    AppSpec(
        name="FLASH", version="4.4", domain="astrophysics",
        description="2D 512x512 Sedov explosion; 100 steps, checkpoint "
                    "every 20 steps",
        compiler="Intel 19.1.0", mpi="Intel MPI 2018", hdf5="HDF5 1.8.20",
        variants=(
            _v("FLASH", "HDF5", flash.main, options={"fbs": True},
               variant_suffix="fbs",
               expected_xy="M-1", expected_pattern="strided cyclic",
               expected_conflicts=("WAW-S", "WAW-D"), commit_clean=True),
            _v("FLASH", "HDF5", flash.main, options={"fbs": False},
               variant_suffix="nofbs",
               expected_xy="N-1", expected_pattern="strided",
               expected_conflicts=("WAW-S", "WAW-D"), commit_clean=True),
        )),
    AppSpec(
        name="Nek5000", version="v19.0rc1", domain="CFD",
        description="Eddy solutions in doubly-periodic domain; 1000 "
                    "steps, checkpoint every 100",
        compiler="Intel 19.1.0", mpi="Intel MPI 2018", hdf5="",
        variants=(
            _v("Nek5000", "POSIX", nek5000.main, setup=nek5000.setup,
               expected_xy="1-1", expected_pattern="consecutive"),
        )),
    AppSpec(
        name="QMCPACK", version="3.9.2", domain="quantum chemistry",
        description="Diffusion Monte Carlo of a water molecule; 100 "
                    "warmup, 40 computation steps, checkpoint every 20",
        compiler="Intel 19.1.0", mpi="Intel MPI 2018", hdf5="HDF5 1.12.0",
        variants=(
            _v("QMCPACK", "HDF5", qmcpack.main,
               expected_xy="1-1", expected_pattern="consecutive"),
        )),
    AppSpec(
        name="VASP", version="5.4.4", domain="materials science",
        description="Elastic properties and energies of zinc-blende "
                    "GaAs (binary only)",
        compiler="Intel 18.0.1", mpi="MVAPICH 2.2", hdf5="",
        variants=(
            _v("VASP", "POSIX", vasp.main, setup=vasp.setup,
               expected_xy="N-1", expected_pattern="consecutive"),
        )),
    AppSpec(
        name="LBANN", version="0.1000", domain="machine learning",
        description="Autoencoder train/test on CIFAR-10 (60k 32x32 "
                    "images)",
        compiler="GCC 7.3.0", mpi="MVAPICH 2.3", hdf5="HDF5 1.10.5",
        variants=(
            _v("LBANN", "POSIX", lbann.main, setup=lbann.setup,
               expected_xy="N-1", expected_pattern="consecutive"),
        )),
    AppSpec(
        name="LAMMPS", version="20Mar20", domain="molecular dynamics",
        description="2D LJ flow; 100 steps, dump every 20; atom dump "
                    "through five I/O backends",
        compiler="Intel 19.1.0", mpi="Intel MPI 2018", hdf5="HDF5 1.12.0",
        variants=(
            _v("LAMMPS", "ADIOS", lammps.main, setup=lammps.setup,
               expected_xy="M-M", expected_pattern="consecutive",
               expected_conflicts=("WAW-S",)),
            _v("LAMMPS", "NetCDF", lammps.main, setup=lammps.setup,
               expected_xy="1-1", expected_pattern="consecutive",
               expected_conflicts=("WAW-S",)),
            _v("LAMMPS", "HDF5", lammps.main, setup=lammps.setup,
               expected_xy="1-1", expected_pattern="consecutive"),
            _v("LAMMPS", "MPI-IO", lammps.main, setup=lammps.setup,
               expected_xy="M-1", expected_pattern="strided"),
            _v("LAMMPS", "POSIX", lammps.main, setup=lammps.setup,
               expected_xy="1-1", expected_pattern="consecutive"),
        )),
    AppSpec(
        name="ENZO", version="enzo-dev 20200623", domain="astrophysics",
        description="Non-cosmological collapse test: sphere collapse to "
                    "pressure support",
        compiler="Intel 19.1.0", mpi="Intel MPI 2018", hdf5="HDF5 1.12.0",
        variants=(
            _v("ENZO", "HDF5", enzo.main,
               expected_xy="N-N", expected_pattern="consecutive",
               expected_conflicts=("RAW-S",)),
        )),
    AppSpec(
        name="NWChem", version="6.8.1", domain="computational chemistry",
        description="3-Carboxybenzisoxazole gas-phase dynamics at 500K; "
                    "trajectory written every step",
        compiler="Intel 19.1.0", mpi="Intel MPI 2018", hdf5="",
        variants=(
            _v("NWChem", "POSIX", nwchem.main, setup=nwchem.setup,
               expected_xy="N-N", expected_pattern="consecutive",
               expected_conflicts=("WAW-S", "RAW-S")),
        )),
    AppSpec(
        name="ParaDiS", version="2.5.1.1", domain="dislocation dynamics",
        description="Fast-multipole dislocation dynamics in copper",
        compiler="Intel 19.1.0", mpi="Intel MPI 2018", hdf5="HDF5 1.8.20",
        variants=(
            _v("ParaDiS", "HDF5", paradis.main,
               expected_xy="N-1", expected_pattern="strided"),
            _v("ParaDiS", "POSIX", paradis.main,
               expected_xy="N-1", expected_pattern="strided"),
        )),
    AppSpec(
        name="Chombo", version="3.2.7", domain="AMR framework",
        description="3D variable-coefficient AMR Poisson solve with "
                    "sinusoidal RHS",
        compiler="Intel 19.1.0", mpi="Intel MPI 2018", hdf5="HDF5 1.8.20",
        variants=(
            _v("Chombo", "HDF5", chombo.main,
               expected_xy="N-1", expected_pattern="strided"),
        )),
    AppSpec(
        name="GTC", version="0.92", domain="plasma physics",
        description="Built-in example run (gtc.64p.input)",
        compiler="Intel 19.1.0", mpi="Intel MPI 2018", hdf5="",
        variants=(
            _v("GTC", "POSIX", gtc.main, setup=gtc.setup,
               expected_xy="1-1", expected_pattern="consecutive"),
        )),
    AppSpec(
        name="GAMESS", version="June 30, 2019 R1",
        domain="quantum chemistry",
        description="Closed-shell functional test on a C1 conformer of "
                    "ethyl alcohol",
        compiler="Intel 19.1.0", mpi="Intel MPI 2018", hdf5="",
        variants=(
            _v("GAMESS", "POSIX", gamess.main,
               expected_xy="M-M", expected_pattern="consecutive",
               expected_conflicts=("WAW-S",)),
        )),
    AppSpec(
        name="MILC-QCD", version="7.8.1", domain="lattice QCD",
        description="MILC collaboration lattice QCD calculation",
        compiler="Intel 19.1.0", mpi="Intel MPI 2018", hdf5="",
        variants=(
            _v("MILC-QCD", "POSIX", milc.main,
               options={"save_parallel": True}, variant_suffix="Parallel",
               expected_xy="N-1", expected_pattern="strided"),
            _v("MILC-QCD", "POSIX", milc.main,
               options={"save_parallel": False}, variant_suffix="Serial",
               expected_xy="1-1", expected_pattern="consecutive"),
        )),
    AppSpec(
        name="MACSio", version="1.1", domain="I/O proxy",
        description="Simulates ALE3D I/O behaviour; Silo backend",
        compiler="Intel 19.1.0", mpi="Intel MPI 2018", hdf5="HDF5 1.8.20",
        variants=(
            _v("MACSio", "Silo", macsio.main,
               expected_xy="N-M", expected_pattern="strided",
               expected_conflicts=("WAW-S",)),
        )),
    AppSpec(
        name="pF3D-IO", version="-", domain="laser-plasma interaction",
        description="One pF3D checkpoint step, ~2 GB per process "
                    "(binary only)",
        compiler="Intel 18.0.1", mpi="MVAPICH 2.2", hdf5="",
        variants=(
            _v("pF3D-IO", "POSIX", pf3d.main,
               expected_xy="N-N", expected_pattern="consecutive",
               expected_conflicts=("RAW-S",)),
        )),
    AppSpec(
        name="HACC-IO", version="1.0", domain="cosmology I/O kernel",
        description="CORAL HACC I/O kernel: checkpoint/restart and "
                    "analysis outputs",
        compiler="Intel 19.1.0", mpi="Intel MPI 2018", hdf5="",
        variants=(
            _v("HACC-IO", "MPI-IO", haccio.main,
               expected_xy="N-N", expected_pattern="consecutive"),
            _v("HACC-IO", "POSIX", haccio.main,
               expected_xy="N-N", expected_pattern="consecutive"),
        )),
    AppSpec(
        name="VPIC-IO", version="0.1", domain="plasma physics I/O kernel",
        description="1D particle array, eight variables per particle",
        compiler="Intel 19.1.0", mpi="Intel MPI 2018", hdf5="HDF5 1.12.0",
        variants=(
            _v("VPIC-IO", "HDF5", vpicio.main,
               expected_xy="M-1", expected_pattern="strided cyclic"),
        )),
    AppSpec(
        name="Ckpt-IO", version="1.0", domain="checkpoint/restart proxy",
        description="N-1 shared-file, N-N file-per-rank and host-side "
                    "WAL checkpoint strategies over identical payloads",
        compiler="GCC 9.3.0", mpi="Open MPI 4.0", hdf5="",
        variants=(
            _v("Ckpt-IO", "POSIX", checkpoint.main_shared,
               options={"steps": 4, "record_bytes": 4096,
                        "header_bytes": 512},
               variant_suffix="shared",
               expected_xy="N-1", expected_pattern="strided"),
            _v("Ckpt-IO", "POSIX", checkpoint.main_fpp,
               options={"steps": 4, "record_bytes": 4096, "chunks": 4},
               variant_suffix="fpp",
               expected_xy="N-N", expected_pattern="consecutive"),
            _v("Ckpt-IO", "POSIX", checkpoint.main_wal,
               options={"steps": 6, "record_bytes": 2048,
                        "flush_every": 2, "flush_delay": 1.5e-4,
                        "wal_dir": checkpoint.WAL_DIR,
                        "seg_dir": checkpoint.SEG_DIR},
               variant_suffix="wal",
               expected_xy="N-N", expected_pattern="consecutive"),
        )),
)


def all_variants() -> list[RunVariant]:
    """Every run configuration, in registry order (28 variants)."""
    return [v for spec in APPLICATIONS for v in spec.variants]


def find_spec(name: str) -> AppSpec:
    for spec in APPLICATIONS:
        if spec.name.lower() == name.lower():
            return spec
    raise KeyError(f"unknown application {name!r}")


def find_variant(application: str, io_library: str | None = None,
                 variant_suffix: str | None = None) -> RunVariant:
    """Look up a run variant by application (+ library / suffix)."""
    spec = find_spec(application)
    candidates = list(spec.variants)
    if io_library is not None:
        candidates = [v for v in candidates
                      if v.io_library.lower() == io_library.lower()]
    if variant_suffix is not None:
        candidates = [v for v in candidates
                      if v.variant_suffix.lower() == variant_suffix.lower()]
    if not candidates:
        raise KeyError(f"no variant {application}/{io_library}"
                       f"/{variant_suffix}")
    return candidates[0]
