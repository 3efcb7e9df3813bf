//! Embedding one protocol inside another.
//!
//! Higher-level protocols (the phase loop of phase king and Algorithm 5,
//! the Algorithm-1 wrapper, the fallbacks of the CommEff and Resilient
//! families) run sub-protocols in tagged slots: every sub-protocol
//! message travels wrapped in the outer protocol's message enum,
//! carrying the slot tag, so Byzantine replay across slots or phases is
//! inert — an honest process simply never routes a mis-tagged message
//! into a live sub-protocol.
//!
//! [`step_sub`] is the one embedding API: it projects the outer inbox
//! onto the sub-protocol, steps it, and wraps its sends. The routing
//! stays cheap: inner payloads stay behind their `Arc`, and broadcast
//! wrapping reuses one outer allocation per distinct inner payload.

use crate::envelope::{Envelope, Outbox};
use crate::process::Process;
use std::sync::Arc;

/// Steps the embedded sub-protocol `sub` at its local round `local`.
///
/// `extract` selects the sub-protocol's messages from the outer inbox
/// (returning the inner payload, or `None` for everything else, which
/// is discarded); `wrap` turns each of its sends into an outer message.
pub fn step_sub<P: Process, M>(
    sub: &mut P,
    local: u64,
    inbox: &[Envelope<M>],
    out: &mut Outbox<M>,
    wrap: impl FnMut(Arc<P::Msg>) -> M,
    extract: impl FnMut(&M) -> Option<Arc<P::Msg>>,
) {
    let sub_in = sub_inbox(inbox, extract);
    let mut sub_out = Outbox::new(out.sender(), out.system_size());
    sub.step(local, &sub_in, &mut sub_out);
    forward_sub(sub_out, out, wrap);
}

/// Projects an outer inbox onto a sub-protocol inbox.
///
/// `extract` returns the inner payload for messages addressed to the
/// sub-protocol's slot (and `None` for everything else, which is
/// discarded).
pub(crate) fn sub_inbox<M, S>(
    inbox: &[Envelope<M>],
    mut extract: impl FnMut(&M) -> Option<Arc<S>>,
) -> Vec<Envelope<S>> {
    inbox
        .iter()
        .filter_map(|env| {
            extract(&env.payload).map(|payload| Envelope {
                from: env.from,
                to: env.to,
                payload,
            })
        })
        .collect()
}

/// Forwards a sub-protocol's outbox into the outer outbox, wrapping each
/// inner payload with `wrap`.
///
/// Envelopes that share an inner payload (sub-protocol broadcasts) share
/// the outer allocation too.
pub(crate) fn forward_sub<S, M>(
    sub_out: Outbox<S>,
    out: &mut Outbox<M>,
    mut wrap: impl FnMut(Arc<S>) -> M,
) {
    let mut cache: Vec<(*const S, Arc<M>)> = Vec::new();
    for env in sub_out.into_envelopes() {
        let key = Arc::as_ptr(&env.payload);
        let outer = match cache.iter().find(|(k, _)| *k == key) {
            Some((_, outer)) => Arc::clone(outer),
            None => {
                let outer = Arc::new(wrap(Arc::clone(&env.payload)));
                cache.push((key, Arc::clone(&outer)));
                outer
            }
        };
        out.push_envelope(Envelope {
            from: env.from,
            to: env.to,
            payload: outer,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::ProcessId;

    #[derive(Clone, Debug, PartialEq)]
    enum Outer {
        A(Arc<u32>),
        B(Arc<u32>),
    }

    /// Echoes the sum of its inbox to everyone.
    struct Summer;

    impl Process for Summer {
        type Msg = u32;
        type Output = ();
        fn step(&mut self, _round: u64, inbox: &[Envelope<u32>], out: &mut Outbox<u32>) {
            out.broadcast(inbox.iter().map(|e| *e.payload).sum());
        }
        fn output(&self) -> Option<()> {
            None
        }
        fn halted(&self) -> bool {
            false
        }
    }

    #[test]
    fn step_sub_routes_only_the_selected_slot_and_wraps_sends() {
        let inbox = vec![
            Envelope::new(ProcessId(0), ProcessId(1), Outer::A(Arc::new(10))),
            Envelope::new(ProcessId(2), ProcessId(1), Outer::B(Arc::new(20))),
            Envelope::new(ProcessId(2), ProcessId(1), Outer::A(Arc::new(5))),
        ];
        let mut out: Outbox<Outer> = Outbox::new(ProcessId(1), 3);
        step_sub(&mut Summer, 0, &inbox, &mut out, Outer::B, |m| match m {
            Outer::A(x) => Some(Arc::clone(x)),
            Outer::B(_) => None,
        });
        let envs = out.into_envelopes();
        assert_eq!(envs.len(), 3);
        assert!(envs.iter().all(|e| e.from == ProcessId(1)));
        assert!(envs
            .iter()
            .all(|e| matches!(&*e.payload, Outer::B(x) if **x == 15)));
    }

    #[test]
    fn sub_inbox_filters_and_unwraps() {
        let inbox = vec![
            Envelope::new(ProcessId(0), ProcessId(1), Outer::A(Arc::new(10))),
            Envelope::new(ProcessId(2), ProcessId(1), Outer::B(Arc::new(20))),
        ];
        let sub = sub_inbox(&inbox, |m| match m {
            Outer::A(x) => Some(Arc::clone(x)),
            Outer::B(_) => None,
        });
        assert_eq!(sub.len(), 1);
        assert_eq!(*sub[0].payload, 10);
        assert_eq!(sub[0].from, ProcessId(0));
    }

    #[test]
    fn forward_sub_wraps_and_shares_allocations() {
        let mut sub: Outbox<u32> = Outbox::new(ProcessId(0), 3);
        sub.broadcast(7);
        let mut out: Outbox<Outer> = Outbox::new(ProcessId(0), 3);
        forward_sub(sub, &mut out, Outer::A);
        let envs = out.into_envelopes();
        assert_eq!(envs.len(), 3);
        // One outer allocation shared by all three envelopes.
        assert!(envs
            .windows(2)
            .all(|w| Arc::ptr_eq(&w[0].payload, &w[1].payload)));
        assert!(matches!(&*envs[0].payload, Outer::A(x) if **x == 7));
    }

    #[test]
    fn forward_sub_distinguishes_distinct_payloads() {
        let mut sub: Outbox<u32> = Outbox::new(ProcessId(1), 4);
        sub.send(ProcessId(0), 1);
        sub.send(ProcessId(2), 2);
        let mut out: Outbox<Outer> = Outbox::new(ProcessId(1), 4);
        forward_sub(sub, &mut out, Outer::B);
        let envs = out.into_envelopes();
        assert!(matches!(&*envs[0].payload, Outer::B(x) if **x == 1));
        assert!(matches!(&*envs[1].payload, Outer::B(x) if **x == 2));
    }
}
