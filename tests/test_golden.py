"""Byte-identity of the assembled netlists and the stamped MNA matrices.

The digests below were recorded before the netlist store and the stampers
became array-native; any change to node numbering, element order, a value's
last bit, or the order in which duplicate matrix entries are summed shows up
here.  Re-record them only with a change that means to alter the numbers,
and say so where the change is described.
"""

import hashlib

import numpy as np
import pytest

from conftest import ACCEPT_DT_S
from pdnsim.builder import assemble_netlist
from pdnsim.mna import stamp_mna
from pdnsim.netlist import netlist_to_text

GOLDEN = {  # (benchmark, tiles per side): (text, DC matrix, transient matrix)
    ("on_package_1", 8): (
        "8955d6c4b974db3c919eadd8431c43e66a327f1a26cafac850533d86ca249d6c",
        "4f8ffbd8035ea1c86d56f00a22798ebf86078f0bae45f2c6addfacaa2721a41c",
        "f1c0d38c8135c508102b8cd2fa5a079edb42ac628343ed4607fc15f78438ea5b",
    ),
    ("on_package_1", 50): (
        "c7e5e8a57709305f6b124612c79fa56345bdb2d580f48cf39082bb21b7160ec6",
        "a51e25121b36534ce680d5371eebb943c3da0f7efc07ea224141918b1705b006",
        "66d89d6e1f9a599e2c77cacc666f6cc8f17d58a5f932cf2895e48233a7d93aed",
    ),
    ("on_package_2", 8): (
        "1ebdb34040f30df9dbcbd8dfdaf5a874b15cd70e0ae514023ca7694a5cb9a45f",
        "3a623aacf2b779a2318b17296da0f070ae65a385e13d606763d7b845b6b59404",
        "9fdc25fa85ff48d4ab621c4199d6b77c5ce906d3b7757fc6c861a111289adbea",
    ),
    ("on_package_2", 50): (
        "f78e5ff26f3ab77fac8988975a49fdd6beb0d28e49f37387a7819e5d1409c7ea",
        "b1e02f31096d5053f4d85a6570d14bcbc99f0c9b062910c0a3c25cfafac8eb43",
        "dab2b4dc8f1d5fcea1b952314c2eff290427def6a63e0c90ef4a39ca3be968b5",
    ),
    ("on_package_4", 8): (
        "3daa7e4a9bc8100a6b1597cf25da603cbf9c8c2b8b8336346ed687f456a25cf2",
        "b5f913cbeaf4d3833d2ffb462ae1f3203784742a1a9d460b4233cde7b0485e10",
        "6ee48afc8d368ffe9864153c460390dbabb6d3a1257e90b85e26bc0347412590",
    ),
    ("on_package_4", 50): (
        "239dfe44eb9a7ac9ae04a84762074276dc3e5bbf665ad72e6d0b561f884c6c2c",
        "4d9b611d849bfe0d6887fd29e0b096ac176c04c9e6c018f6b7b8f0cec49c28ce",
        "9945dfe3245a8149c040fb7b30ea9a8c78f7d7bee5090c200a6cf7e571ce1eca",
    ),
    ("backside", 8): (
        "4630d4915b8c55f99d08d3b710f42016afa94d143104d5d393a07a8e3f1a7baa",
        "8d1c66ba544f77791167ea04a5f820a9d7a835500eb4c04b869eb31c0d144ae6",
        "1ef0c45df31b488623f059d9cd27ea19a31ef7e04ae4f8457962a7932353b210",
    ),
    ("backside", 50): (
        "a4de802402b00cb93c7899bb96a5f842c21ac916471613f4418f028711adb827",
        "79fb43d53cef8f68ab30824e7acc1f66844954439125b91a2beb069fda1ce039",
        "e3bb08f53b402dc316278db6098c146a9864f181b4b2ef392e382149905244ef",
    ),
    ("chip_on_vrm_3d", 8): (
        "be93aeb5626c4148c137fd72ec31f8b61c852c7e50ba5f10010d93325834dc02",
        "e16d4b00be3fdbf1e349d4db7a9c5e19d518e47feeae0f1c151a660ef26fc4d1",
        "909a2cd8249604df1c257adf314f6a0aedb2639121f9081289b50d54f00ca470",
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
