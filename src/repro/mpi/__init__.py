"""The MPI-3.1 API layer (MPICH's machine-independent "MPI layer").

This is the layer users call.  Its responsibilities mirror the paper's
walk-through of MPI_PUT: (1) check the arguments when error checking
is built in, (2) look up the communication object, (3) take the
thread-safe or thread-unsafe path — then hand the full operation to
the abstract device (CH4 or CH3).

API conventions follow mpi4py where the two overlap: lowercase methods
(``send``/``recv``/``bcast``...) communicate pickled Python objects;
capitalized methods (``Send``/``Recv``/``Bcast``...) communicate
numpy/buffer data at near-raw speed.
"""

from repro.mpi.group import Group
from repro.mpi.info import Info
from repro.mpi.status import Status
from repro.mpi.reduceops import (
    Op,
    SUM,
    PROD,
    MAX,
    MIN,
    LAND,
    LOR,
    BAND,
    BOR,
    REPLACE,
    NO_OP,
)
from repro.mpi.comm import Communicator
from repro.mpi.rma import Window, WindowState, RWLock
from repro.mpi.cart import CartComm, cart_create, dims_create
from repro.mpi.intercomm import Intercommunicator, intercomm_create
from repro.mpi.nbc import NBCRequest
from repro.mpi.persist import PersistentRecv, PersistentSend, startall
from repro.mpi.packapi import mpi_pack, mpi_unpack, pack_size
from repro.mpi.tools import PvarSession, pvar_get_info, pvar_names

__all__ = [
    "CartComm",
    "cart_create",
    "dims_create",
    "Intercommunicator",
    "intercomm_create",
    "NBCRequest",
    "PersistentRecv",
    "PersistentSend",
    "startall",
    "mpi_pack",
    "mpi_unpack",
    "pack_size",
    "PvarSession",
    "pvar_get_info",
    "pvar_names",
    "Group",
    "Info",
    "Status",
    "Op",
    "SUM",
    "PROD",
    "MAX",
    "MIN",
    "LAND",
    "LOR",
    "BAND",
    "BOR",
    "REPLACE",
    "NO_OP",
    "Communicator",
    "Window",
    "WindowState",
    "RWLock",
]
