//! The chare abstraction and the context handed to entry methods.

use crate::stats::ReductionSlots;

/// A chare's dense global identifier within the runtime's single chare
/// array. (EpiSimdemics uses two logical arrays — PersonManagers and
/// LocationManagers — which the application multiplexes onto one id space.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChareId(pub u32);

/// An addressed message awaiting delivery.
#[derive(Debug)]
pub(crate) struct Envelope<M> {
    /// Destination chare.
    pub(crate) to: ChareId,
    /// Payload.
    pub(crate) msg: M,
}

/// Application message. `size_bytes` feeds the bandwidth accounting; the
/// default charges the in-memory size, which applications with heap payloads
/// should override.
///
/// The networked engine ([`crate::net`]) additionally needs a byte codec:
/// `wire_encode`/`wire_decode` serialize the message into the little-endian
/// payload of a BATCH frame. The defaults panic, so in-process engines work
/// without a codec and the net engine fails loudly on a type that lacks one.
pub trait Message: Send + 'static {
    /// Wire size estimate in bytes.
    fn size_bytes(&self) -> usize {
        std::mem::size_of_val(self)
    }

    /// Serialize for cross-process transport (little-endian, via the
    /// `bytes` shim). Required only by [`crate::config::ExecMode::Net`].
    fn wire_encode(&self, _out: &mut bytes::BytesMut) {
        panic!(
            "{} has no wire codec; implement Message::wire_encode/wire_decode to use the net engine",
            std::any::type_name::<Self>()
        );
    }

    /// Deserialize one message, advancing `buf` past it. Returns `None` on
    /// a malformed payload (the transport treats that as fatal).
    fn wire_decode(_buf: &mut &[u8]) -> Option<Self>
    where
        Self: Sized,
    {
        panic!(
            "{} has no wire codec; implement Message::wire_encode/wire_decode to use the net engine",
            std::any::type_name::<Self>()
        );
    }
}

/// An application object driven entirely by messages (a Charm++ chare).
pub trait Chare<M: Message>: Send {
    /// Handle one message. Sends and reduction contributions go through
    /// `ctx`.
    fn receive(&mut self, msg: M, ctx: &mut Ctx<'_, M>);

    /// Downcast support: applications that reclaim chare state after
    /// [`crate::Runtime::into_chares`] (e.g. to take person states out of
    /// a finished run) implement this as `fn into_any(self: Box<Self>) ->
    /// Box<dyn Any> { self }`.
    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any>;

    /// Serialize this chare's recovery-relevant state for a coordinated
    /// checkpoint (taken between phases, when the system is globally
    /// quiescent). The default `None` marks the chare as having no state
    /// worth persisting — the resilient driver skips it and rebuilds it
    /// from the deterministic construction path on restore.
    fn snapshot(&self) -> Option<Vec<u8>> {
        None
    }
}

/// Entry-method context: lets a chare send messages and contribute to the
/// phase's reductions. Engines supply the outgoing-message sink behind it.
pub struct Ctx<'a, M: Message> {
    pub(crate) sender: &'a mut dyn Sender<M>,
    pub(crate) reductions: &'a mut ReductionSlots,
    pub(crate) self_id: ChareId,
}

impl<'a, M: Message> Ctx<'a, M> {
    /// The id of the chare currently executing.
    pub fn self_id(&self) -> ChareId {
        self.self_id
    }

    /// Asynchronously send `msg` to another chare. Counted by completion
    /// detection; delivery order between different destinations is
    /// unspecified (as in Charm++).
    pub fn send(&mut self, to: ChareId, msg: M) {
        self.sender.send(to, msg);
    }

    /// Add `value` into sum-reduction slot `slot` (0-based; see
    /// [`ReductionSlots::N`]). The per-phase totals are returned to the
    /// driver in [`crate::stats::PhaseStats`] — the paper's step 6,
    /// "global system state is updated".
    pub fn contribute(&mut self, slot: usize, value: u64) {
        self.reductions.add(slot, value);
    }
}

/// Engine-side sink for outgoing messages.
pub(crate) trait Sender<M: Message> {
    fn send(&mut self, to: ChareId, msg: M);
}

#[cfg(test)]
mod tests {
    use super::*;

    struct VecSender<M>(Vec<(ChareId, M)>);
    impl<M: Message> Sender<M> for VecSender<M> {
        fn send(&mut self, to: ChareId, msg: M) {
            self.0.push((to, msg));
        }
    }

    impl Message for u64 {}

    #[test]
    fn ctx_routes_sends_and_contributions() {
        let mut sender = VecSender(Vec::new());
        let mut red = ReductionSlots::default();
        let mut ctx = Ctx {
            sender: &mut sender,
            reductions: &mut red,
            self_id: ChareId(7),
        };
        assert_eq!(ctx.self_id(), ChareId(7));
        ctx.send(ChareId(1), 42u64);
        ctx.send(ChareId(2), 43u64);
        ctx.contribute(0, 5);
        ctx.contribute(0, 6);
        ctx.contribute(3, 1);
        assert_eq!(sender.0, vec![(ChareId(1), 42), (ChareId(2), 43)]);
        assert_eq!(red.get(0), 11);
        assert_eq!(red.get(3), 1);
    }

    #[test]
    fn default_size_bytes() {
        assert_eq!(Message::size_bytes(&0u64), 8);
    }
}
