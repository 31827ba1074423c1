//! Test fixtures shared by the engines' unit tests: a token passed around
//! a ring of relays.

use crate::chare::{Chare, ChareId, Ctx, Message};

/// A countdown: each relay forwards it with one less until it hits 0.
#[derive(Debug)]
pub(crate) struct Token(pub(crate) u64);
impl Message for Token {}

/// Forwards a token to the next chare of the ring, counting each one it
/// sees in its own state and in reduction slot 0.
pub(crate) struct Relay {
    pub(crate) next: ChareId,
    pub(crate) seen: u64,
}

impl Chare<Token> for Relay {
    fn receive(&mut self, msg: Token, ctx: &mut Ctx<'_, Token>) {
        self.seen += 1;
        ctx.contribute(0, 1);
        if msg.0 > 0 {
            ctx.send(self.next, Token(msg.0 - 1));
        }
    }

    fn into_any(self: Box<Self>) -> Box<dyn std::any::Any> {
        self
    }
}

/// A ring of `n_chares` relays, chare `i` on PE `i % n_pes`, as the
/// `(id, pe, chare)` triples an engine's `add_chare` takes.
pub(crate) fn ring(n_chares: u32, n_pes: u32) -> Vec<(ChareId, u32, Box<dyn Chare<Token>>)> {
    (0..n_chares)
        .map(|i| {
            let next = ChareId((i + 1) % n_chares);
            let relay: Box<dyn Chare<Token>> = Box::new(Relay { next, seen: 0 });
            (ChareId(i), i % n_pes, relay)
        })
        .collect()
}
