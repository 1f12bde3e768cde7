"""Mercury-like RPC + bulk transfer substrate."""

from .endpoint import RPCEndpoint, RPCError, RPCTimeout

__all__ = ["RPCEndpoint", "RPCError", "RPCTimeout"]
