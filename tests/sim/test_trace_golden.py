"""Golden trace bytes: every configuration's ``.rtrc`` is pinned.

The other byte-identity tests compare two runs of the same code (serial
against ``--jobs``, cold against cached), so a scheduling change that
altered every trace the same way would pass them.  These digests were
recorded once and change only when a trace really changes: the
sha256 of :func:`~repro.tracer.columnar.write_rtrc`'s bytes for all 28
registry configurations at (8 ranks, seed 7) and (32 ranks, seed 11).

A change that is meant to alter traces updates these digests in the
same commit and says why.
"""

import hashlib

import pytest

from repro.apps.registry import all_variants
from repro.tracer.columnar import write_rtrc

VARIANTS = {v.label: v for v in all_variants()}

#: (nranks, seed) -> configuration label -> sha256 of its .rtrc bytes
GOLDEN = {
    (8, 7): {
        "Chombo-HDF5":
            "fe4e0bc042db8b56411d178f3fe8635c1da40b55638877758c328562218beb8e",
        "Ckpt-IO-POSIX fpp":
            "6901af290330803c8935935c916cf0b17a33536c6d696353fc916729fa0b7c38",
        "Ckpt-IO-POSIX shared":
            "76d2cc52b95a899cb01cb1ffc4b4cdbc5622c6e3c52f791e2a09659ac6246173",
        "Ckpt-IO-POSIX wal":
            "04cbf09451cc3f01f7e9500541a1b49f12997dd20d7dd96004fe7842de192446",
        "ENZO-HDF5":
            "25d3c8630e6a8d9c8d7aa8c74e0facc929e30dfe563fd1858d062622526aa86d",
        "FLASH-HDF5 fbs":
            "214ab9555aaa52fe5add07476297317993ebe8c1d5bc8e3d63f782ebba8e0a58",
        "FLASH-HDF5 nofbs":
            "7430c08cbb74f7c87839d3985415a30a225bdefceac4fb3e44ce6fb0e919869a",
        "GAMESS-POSIX":
            "ee49d9204bad6d6d0e898b18de479457ca90c49e0225cb352d7ae341a5b9fae7",
        "GTC-POSIX":
            "74a1174dca248a6fd6225ee0e666a551a4b0c89fe31d779ccf13493f11b8c86b",
        "HACC-IO-MPI-IO":
            "f4f28f433fb81c46da06b1014e7b14285beabfd3f1d60d3ec8b23fe2a7ec4cef",
        "HACC-IO-POSIX":
            "41c8f13a94a10b778e6819fa359e7169439bef7b0301f36cb6450dff534f0667",
        "LAMMPS-ADIOS":
            "f0cce4033aa92891bebb230bef23679418775629e767f8e081483437dbb25985",
        "LAMMPS-HDF5":
            "58844adb6a8486f1e870b77958a5ac8feb53a8205652aa6d4fa274972b03e843",
        "LAMMPS-MPI-IO":
            "ec6ff80a2188b8fa5aa60518927a2471201129780e9c902f08b1ed83ea101680",
        "LAMMPS-NetCDF":
            "a9455c14eda3e8506245d9bcc02315b08d08ddd59ad22ce0d82680923a7bcc52",
        "LAMMPS-POSIX":
            "34bcb89b98af4be22578befe9cb94e5fa58703066ece09cb1fee48c7f3ecada4",
        "LBANN-POSIX":
            "09292889008bac457cbc01075ff2433364df8ecfb6160cefa487636b733c811f",
        "MACSio-Silo":
            "4e2bff972d5df61fd39925b71f98d477d6dc5847be287727c0cdab7481d17cc0",
        "MILC-QCD-POSIX Parallel":
            "968a1b456e39844ebcfcf06a8ae4fc33680d03e4866f57bd030b0824aba07fbf",
        "MILC-QCD-POSIX Serial":
            "9f43426e7d41e4063155f0e3d60c5e84068b06dfae14517bf53aa902b7894229",
        "NWChem-POSIX":
            "12fbc5a29a1909611364bebd1ee8ffa14b5319fbe952070188c527cafea4aa79",
        "Nek5000-POSIX":
            "4d3d7783d5a5b11d10c35552053497ca587f40a6bbf543083151fe1e41bd6aa6",
        "ParaDiS-HDF5":
            "e84230cd6305b1b81223af012013d012d69ab9af24e42080dcabb338ed0e043d",
        "ParaDiS-POSIX":
            "a5d0e12904d98367b9ded12d4402ad76de079f5d61a66ccf1167c525ee97316a",
        "QMCPACK-HDF5":
            "c8409a963ba23ed174cce529503e3d90f67ede78af10a1a97e568a0b762a2478",
        "VASP-POSIX":
            "2163a9143aa3e0aa9c94d2c03135d167799ea64f7ac2e07349da84f170a8c757",
        "VPIC-IO-HDF5":
            "82a82772819030a280df76f4cb4f40b2cd7847c8640ecff43c2a9d52945c0bbf",
        "pF3D-IO-POSIX":
            "8258b57ef81f25553228c17ca1709b0620924ece36603ab72751114d510b1b66",
    },
    (32, 11): {
        "Chombo-HDF5":
            "b9bb1d25a8d92f9c16afd788fb3184b69d5eba4aed516b1776620f42d5a3b564",
        "Ckpt-IO-POSIX fpp":
            "a65e73dc7b914d55600bcd8c62204e8341a43d621455db3e6029569309c6dffb",
        "Ckpt-IO-POSIX shared":
            "6ea22d561f1ade1828f9a27d92ac4d0c544951da84ded7fcb42831abc71ff19c",
        "Ckpt-IO-POSIX wal":
            "807dfc39d8f07f97e185c5344656a1a7f2992741ee531855408a0f485cac9cd6",
        "ENZO-HDF5":
            "3b7fcbf05cea4e533da1ea418801928cfad5e1f0aff7c38f935cff9c52a89d74",
        "FLASH-HDF5 fbs":
            "d515995f53c202afa70b91c38b70c7232fde53628d7b56677ad01b7b8facc8dc",
        "FLASH-HDF5 nofbs":
            "04cef6b1a6d92107c8b2a5b45edc382496bdac76b6d3d26414ec0d4296978ac7",
        "GAMESS-POSIX":
            "6605b8c9855340eeb63145c3d1e9bdd1124da3b18c6159e6ebc5de276c17b408",
        "GTC-POSIX":
            "c3dab5e5e70e74de72161c8282a991839b0b738a3b03513bf4c17158868fb3d0",
        "HACC-IO-MPI-IO":
            "cb3ad3ecfb9669bd99a9b95cc82f53da779ad07b0ce618883bd27ec09c23d5ad",
        "HACC-IO-POSIX":
            "7c7198a17c7f0a371df127291da961462b129454f849bdf041863bac5322ac18",
        "LAMMPS-ADIOS":
            "9cb7e4ee0fcd62a55db0a90f216861b9aeb600291076b1cefcf478d5077db25d",
        "LAMMPS-HDF5":
            "c36b677716154393be28731d4c33650ded36b8aabf81735125c69890d1dcaf2a",
        "LAMMPS-MPI-IO":
            "ae1ec376293b4b6184b0b8104e06693d7405cb2dfb4aaf5f985f280ad129c5db",
        "LAMMPS-NetCDF":
            "b3d4ee5739aced8b4d92df9e18bdf3410dc4f0044eec6f38ccefb6f3a9e1b7ba",
        "LAMMPS-POSIX":
            "f5df306fb77807036cee88209319a87b4a8b9287600b9d161bff56e2914bac0a",
        "LBANN-POSIX":
            "0ac70f5c90eaee31f7de6d4deb5bd538fd843186ffe4ece158274d0c33382d63",
        "MACSio-Silo":
            "878b2edab83850a37400b729040d77445f14d650059be8c0a0bfa8eded65d298",
        "MILC-QCD-POSIX Parallel":
            "6e80cdfacf43ebe751e2c4596e14ded8ca6f8a411c371e943ab62934bce8c78d",
        "MILC-QCD-POSIX Serial":
            "1a232ca289bfcdc2e8237f04a34c2ab3f80a7ad4e9c3dced6836aca2ae04aabb",
        "NWChem-POSIX":
            "ad7038a8ad9e08531b203641cc288ea10d22ca60d58b50f0f0d04689640a195c",
        "Nek5000-POSIX":
            "692187b10796c4a0f66c98a09200871bb1206071aaa1c9731ee1cd2d4c196c8a",
        "ParaDiS-HDF5":
            "bea474af502ec71b900dc9b5059892415dda3bccb8721a43ca70eb96504ab97b",
        "ParaDiS-POSIX":
            "2bad9e137fbe29b46afa7d3b37193441aac0cb9094eccbf103d655ead4f9dbf1",
        "QMCPACK-HDF5":
            "34ed0454cd142cc0c3af374ea66909ae890423424e8be0c13b70452e9a228291",
        "VASP-POSIX":
            "9581626a5ece7021a4c65f6f20bec918ad4972a40764eadf2d2313ec21a10e1a",
        "VPIC-IO-HDF5":
            "3172eb443a489ffe427ed9f4c2083bc5da918874bd3ab1b17cc686a3328630ea",
        "pF3D-IO-POSIX":
            "11f668917686f7cf213ebb95836d826922c933ecf8f5ce98d0e9793d078e08a7",
    },
}


def test_every_configuration_is_pinned():
    for digests in GOLDEN.values():
        assert sorted(digests) == sorted(VARIANTS)


@pytest.mark.parametrize(("nranks", "seed", "label"), [
    (nranks, seed, label)
    for (nranks, seed), digests in GOLDEN.items()
    for label in sorted(digests)
])
def test_rtrc_bytes_match_golden(tmp_path, nranks, seed, label):
    trace = VARIANTS[label].run(nranks=nranks, seed=seed)
    path = tmp_path / "trace.rtrc"
    write_rtrc(trace.columnar, path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == GOLDEN[(nranks, seed)][label]
