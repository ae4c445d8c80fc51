//! Brokerless messaging substrate for VideoPipe.
//!
//! The paper uses ZeroMQ (§3.2): pipeline edges and service calls are direct
//! socket connections — explicitly *not* brokered like Kafka/RabbitMQ,
//! because "these brokers will incur extra data communication overheads".
//! This crate is the from-scratch equivalent:
//!
//! * [`WireMessage`] — the framed wire format (kind, channel, correlation
//!   id, sequence, timestamp, payload bytes) with a hand-written codec.
//! * [`Endpoint`] — endpoint strings exactly as they appear in the paper's
//!   pipeline configuration (`"bind#tcp://*:5861"`), plus `inproc://`.
//! * [`InprocHub`] — named in-process channels (crossbeam-backed) used for
//!   co-located modules and services.
//! * [`tcp`] — a real TCP transport with length-prefixed framing for
//!   cross-device edges.
//! * [`patterns`] — the ZeroMQ-style socket patterns the runtime needs:
//!   PUSH/PULL for pipeline edges, REQ/REP for service calls, PUB/SUB for
//!   displays and telemetry.
//! * [`broker`] — a deliberately *brokered* relay used only as the ablation
//!   baseline that quantifies the paper's extra-hop claim.
//! * [`sys`] — the raw `poll(2)`/`signal(2)`/`kill(2)` bindings behind safe
//!   wrappers: the only module in the workspace allowed `unsafe` code.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod broker;
pub mod control;
mod endpoint;
mod error;
mod inproc;
pub mod patterns;
pub mod pool;
#[allow(unsafe_code)]
pub mod sys;
pub mod tcp;
pub mod telemetry;
mod wire;

pub use endpoint::{Endpoint, EndpointMode, EndpointTransport};
pub use error::NetError;
pub use inproc::{InprocHub, InprocReceiver, InprocSender};
pub use pool::{BufferPool, PoolStats};
pub use tcp::PollEndpoint;
pub use wire::{
    read_frame, write_frame, FrameBatch, MessageKind, StreamDecoder, WireMessage, MAX_CHANNEL_LEN,
    MAX_FRAME_LEN,
};

use std::time::Duration;

/// Sending half of a message transport.
pub trait MsgSender: Send {
    /// Sends one message.
    ///
    /// # Errors
    ///
    /// Returns [`NetError`] when the peer is gone or the message cannot be
    /// encoded/transmitted.
    fn send(&self, msg: WireMessage) -> Result<(), NetError>;
}

/// Receiving half of a message transport.
pub trait MsgReceiver: Send {
    /// Blocks until a message arrives.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Disconnected`] when every sender is gone.
    fn recv(&self) -> Result<WireMessage, NetError>;

    /// Non-blocking receive.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::WouldBlock`] when no message is ready and
    /// [`NetError::Disconnected`] when every sender is gone.
    fn try_recv(&self) -> Result<WireMessage, NetError>;

    /// Receive with a timeout.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Timeout`] on expiry and
    /// [`NetError::Disconnected`] when every sender is gone.
    fn recv_timeout(&self, timeout: Duration) -> Result<WireMessage, NetError>;
}
