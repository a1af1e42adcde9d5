"""Per-user broker: names services, mints handles, launches on demand."""

from .core import BrokerOptions
from .handles import HandleCodec
from .server import BrokerServer

__all__ = ["BrokerOptions", "BrokerServer", "HandleCodec"]
