"""Byte-identity of the assembled netlists and the stamped MNA matrices.

The 50-tile digests were recorded before the netlist store and the stampers
became array-native, the 8-tile ones when a tile's bump count became
fractional, and the custom decap-family ones while each decap was still
added one at a time.  Any change to node numbering, element order, a
value's last bit, or the order in which duplicate matrix entries are summed
shows up here.  Re-record them only with a change that means to alter the
numbers, and say so where the change is described.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from conftest import ACCEPT_DT_S
from pdnsim.builder import assemble_netlist
from pdnsim.config import DiscreteDecap, PackageDecap, validate_config
from pdnsim.mna import stamp_mna
from pdnsim.netlist import netlist_to_text

GOLDEN = {  # (benchmark, tiles per side): (text, DC matrix, transient matrix)
    ("on_package_1", 8): (
        "4c7746e20e86f1d9a031cf5822bc3b7e0388b918732a3e9f8008395e17edbb6e",
        "8ef39f941a5a86822a356d851049ab21a9a0f97b3062ab09762661f1cd14716d",
        "35005140c44e4b9513724baf7280ce392567e3a326a3e5265648e0767e055d2c",
    ),
    ("on_package_1", 50): (
        "c7e5e8a57709305f6b124612c79fa56345bdb2d580f48cf39082bb21b7160ec6",
        "a51e25121b36534ce680d5371eebb943c3da0f7efc07ea224141918b1705b006",
        "66d89d6e1f9a599e2c77cacc666f6cc8f17d58a5f932cf2895e48233a7d93aed",
    ),
    ("on_package_2", 8): (
        "9d593aa59f232d1e83d46d6879bb8521539d011138a38f0bd333a4b68181fd8c",
        "9f61eef9271c04a7f9c05cd0162c9f61e3bcf3a111a1141882d6d6a6e3d85175",
        "09d2829763cabe59214347b3be6a707d7d3feba7b7631f28c55227d87c1e188f",
    ),
    ("on_package_2", 50): (
        "f78e5ff26f3ab77fac8988975a49fdd6beb0d28e49f37387a7819e5d1409c7ea",
        "b1e02f31096d5053f4d85a6570d14bcbc99f0c9b062910c0a3c25cfafac8eb43",
        "dab2b4dc8f1d5fcea1b952314c2eff290427def6a63e0c90ef4a39ca3be968b5",
    ),
    ("on_package_4", 8): (
        "195b4a457b8d80591d4a1ad5b824f24a9709dfe9f48be669b80c824e6eae3d4b",
        "a3368a67dfdeb83aa9b028f8befe9ef430ccb61f781195befe09394fb8970c72",
        "49a7683b571d804046b938d1f5aa8fb54e324d3fd5722e5b0cecd3dd79450441",
    ),
    ("on_package_4", 50): (
        "239dfe44eb9a7ac9ae04a84762074276dc3e5bbf665ad72e6d0b561f884c6c2c",
        "4d9b611d849bfe0d6887fd29e0b096ac176c04c9e6c018f6b7b8f0cec49c28ce",
        "9945dfe3245a8149c040fb7b30ea9a8c78f7d7bee5090c200a6cf7e571ce1eca",
    ),
    ("backside", 8): (
        "cd07e59abf5ee2206b08be88f5b77abf9ac9fb6edb9f7a847f35465704468dc7",
        "e10a15f16ae1d0887fe5dfc2eda8845258c508849f74e2c837591a3ba57f169a",
        "7dfb6f840f790f1ef81efe8f73bbb67849dccdaaf550485c761410377519ec75",
    ),
    ("backside", 50): (
        "a4de802402b00cb93c7899bb96a5f842c21ac916471613f4418f028711adb827",
        "79fb43d53cef8f68ab30824e7acc1f66844954439125b91a2beb069fda1ce039",
        "e3bb08f53b402dc316278db6098c146a9864f181b4b2ef392e382149905244ef",
    ),
    ("chip_on_vrm_3d", 8): (
        "3eac37ec5ac88169d4234179d176f0cac8f64e632f6753e73ad5f416e0a17a50",
        "f11495151bd3e617cd2cd75fc272267ee9f14fe0123bb66cb74d0fafc1f01625",
        "785993eae46245283bc358a3ada9cdb9733ba85fa0c7a1f4c975f01d7d43628c",
    ),
    ("chip_on_vrm_3d", 50): (
        "4d1534819d44881613a230f773c9b5be70fe5064cf9c8abf1d38d599cc00dd6a",
        "8f3b27048a10f059463b1e7bc78d845a55d54a772f17c84193a35020087e5e5c",
        "035a472ce785cf5fcac699a97f7a7987a9788c2559dbd5a548cd1425471dbfb9",
    ),
}


def _matrix_digest(m):
    csc = m.tocsc()
    h = hashlib.sha256()
    h.update(np.asarray(csc.indptr, dtype=np.int64).tobytes())
    h.update(np.asarray(csc.indices, dtype=np.int64).tobytes())
    h.update(np.asarray(csc.data, dtype=np.float64).tobytes())
    return h.hexdigest()


def golden_digests(config):
    """SHA-256 of the netlist text and of the DC and transient matrices."""
    net = assemble_netlist(config)
    text = hashlib.sha256(netlist_to_text(net).encode()).hexdigest()
    dc = _matrix_digest(stamp_mna(net, mode="dc").matrix)
    tran = _matrix_digest(stamp_mna(net, mode="transient", dt=ACCEPT_DT_S).matrix)
    return text, dc, tran


@pytest.mark.parametrize("name,tiles", sorted(GOLDEN))
def test_netlist_and_matrices_are_byte_identical(small_config, name, tiles):
    assert golden_digests(small_config(name, tiles=tiles)) == GOLDEN[name, tiles]


def _custom_decaps(name, base):
    """``base`` with decap families that differ from the defaults.  On
    ``on_package_4``: two unequal board decaps and three package decaps,
    one with zero ESR and ESL (both floors), one at x = 0.515625 of a
    32 mm package, 0.5 mm from its centre and so midway between two nodes
    (the nearer-node rule takes the first), and one other.  On
    ``chip_on_vrm_3d``: a die decap with zero ESL."""
    if name == "chip_on_vrm_3d":
        die = dataclasses.replace(base.placement.die_decap, esl_nh=0.0)
        return dataclasses.replace(
            base, placement=dataclasses.replace(base.placement, die_decap=die))
    decaps = dataclasses.replace(base.decaps, package_decaps=(
        PackageDecap(capacitance_uf=0.01, esr_mohm=0.0, esl_nh=0.0, x=0.4, y=0.45),
        PackageDecap(capacitance_uf=0.005, esr_mohm=10.0, esl_nh=0.0001, x=0.515625, y=0.5),
        PackageDecap(capacitance_uf=0.02, esr_mohm=3.0, esl_nh=0.0002, x=0.61, y=0.37),
    ), board_decaps=(
        DiscreteDecap(capacitance_uf=100.0, esr_mohm=1.0, esl_nh=1.0),
        DiscreteDecap(capacitance_uf=47.0, esr_mohm=2.5, esl_nh=0.6),
    ))
    pkg = dataclasses.replace(base.package, package_width_mm=32.0)
    return dataclasses.replace(base, package=pkg, decaps=decaps)


GOLDEN_DECAPS = {  # benchmark at 8 tiles, custom decap families
    "on_package_4": (
        "6c1d84ad5ef61bd47d5057a0d60a5152dfd36cd519ad233a5d0d0589847b0d26",
        "0dfa1e8fa206fc48ab80c9a66d17d0b3fc026d24b2aec403b92ee11f9976e12d",
        "dc65d0deff2409fd54fc4864d965acef83f40e736c57786e4cbf5190149fafbe",
    ),
    "chip_on_vrm_3d": (
        "4ecf9ae0351c27ac26ad30239470e1bc308ea7ebcd3333c4aaaeec5d1600c833",
        "f11495151bd3e617cd2cd75fc272267ee9f14fe0123bb66cb74d0fafc1f01625",
        "12b71faddd2fb4899e791d2b170fe76a7ebc15b626defbbcb50b0fd4a2b66b86",
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_DECAPS))
def test_custom_decap_families_are_byte_identical(small_config, name):
    cfg = validate_config(_custom_decaps(name, small_config(name, tiles=8)))
    assert golden_digests(cfg) == GOLDEN_DECAPS[name]
