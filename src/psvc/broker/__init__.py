"""Per-user broker: names services, mints handles, launches on demand."""

from .handles import HandleCodec
from .server import BrokerServer

__all__ = ["BrokerServer", "HandleCodec"]
