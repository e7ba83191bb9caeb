//! Per-node controllers that a SafetyNet checkpoint shares with the live
//! machine.

use std::collections::VecDeque;
use std::fmt::Debug;
use std::ops::Deref;
use std::sync::Arc;

use specsim_coherence::dir::{DirCacheController, OutMsg};
use specsim_coherence::snoop::msg::SnoopDataOut;
use specsim_coherence::snoop::{SnoopCacheController, SnoopMemoryController};

/// The output queue of a controller that can answer a message without
/// changing: the queue its replies would join.
pub trait Outgoing: Clone + Debug {
    /// One outgoing message.
    type Out: Clone + Debug;
    /// Messages the controller has queued to send, on every path.
    fn queued(&self) -> usize;
    /// The next message on the replies' path.
    fn peek_out(&self) -> Option<&Self::Out>;
    /// Removes the message [`Outgoing::peek_out`] shows.
    fn pop_out(&mut self) -> Option<Self::Out>;
}

impl Outgoing for DirCacheController {
    type Out = OutMsg;
    fn queued(&self) -> usize {
        self.outgoing_len()
    }
    fn peek_out(&self) -> Option<&OutMsg> {
        self.peek_outgoing()
    }
    fn pop_out(&mut self) -> Option<OutMsg> {
        self.pop_outgoing()
    }
}

impl Outgoing for SnoopCacheController {
    type Out = SnoopDataOut;
    fn queued(&self) -> usize {
        self.outgoing_len()
    }
    fn peek_out(&self) -> Option<&SnoopDataOut> {
        self.peek_data_message()
    }
    fn pop_out(&mut self) -> Option<SnoopDataOut> {
        self.pop_data_message()
    }
}

impl Outgoing for SnoopMemoryController {
    type Out = SnoopDataOut;
    fn queued(&self) -> usize {
        self.outgoing_len()
    }
    fn peek_out(&self) -> Option<&SnoopDataOut> {
        self.peek_data_message()
    }
    fn pop_out(&mut self) -> Option<SnoopDataOut> {
        self.pop_data_message()
    }
}

/// A controller behind an [`Arc`], with the replies it gave to messages
/// that changed nothing else.
///
/// A clone (a SafetyNet checkpoint or restore) shares the controller, and
/// the first write after it copies it through [`Shared::make_mut`]. A
/// message whose only effect is a reply queues that reply here instead
/// ([`Shared::answer`]), so the controller stays shared. A reply queues
/// only while the controller's own output is empty, and [`Shared::pop`]
/// returns replies first, so every message leaves in the order the
/// controller would have sent it.
#[derive(Debug, Clone)]
pub(crate) struct Shared<C: Outgoing> {
    ctrl: Arc<C>,
    replies: VecDeque<C::Out>,
}

impl<C: Outgoing> Shared<C> {
    pub(crate) fn new(ctrl: C) -> Self {
        Self {
            ctrl: Arc::new(ctrl),
            replies: VecDeque::new(),
        }
    }

    /// The controller, copied first if a clone still shares it.
    pub(crate) fn make_mut(&mut self) -> &mut C {
        Arc::make_mut(&mut self.ctrl)
    }

    /// Queues the reply `reply_only` gives, when the controller's output is
    /// empty. False when the caller must hand the message to the
    /// controller.
    pub(crate) fn answer(&mut self, reply_only: impl FnOnce(&C) -> Option<C::Out>) -> bool {
        let reply = (self.ctrl.queued() == 0)
            .then(|| reply_only(&self.ctrl))
            .flatten();
        match reply {
            Some(reply) => {
                self.replies.push_back(reply);
                true
            }
            None => false,
        }
    }

    /// Messages waiting to leave: the replies and the controller's output.
    pub(crate) fn queued(&self) -> usize {
        self.replies.len() + self.ctrl.queued()
    }

    /// The message [`Shared::pop`] returns next.
    pub(crate) fn peek(&self) -> Option<&C::Out> {
        self.replies.front().or_else(|| self.ctrl.peek_out())
    }

    /// Removes the oldest reply, else the controller's next message on the
    /// replies' path. A controller with none is not copied.
    pub(crate) fn pop(&mut self) -> Option<C::Out> {
        if let Some(reply) = self.replies.pop_front() {
            return Some(reply);
        }
        self.ctrl.peek_out()?;
        self.make_mut().pop_out()
    }

    /// The shared controller itself.
    #[cfg(test)]
    pub(crate) fn arc(&self) -> &Arc<C> {
        &self.ctrl
    }
}

impl<C: Outgoing> Deref for Shared<C> {
    type Target = C;
    fn deref(&self) -> &C {
        &self.ctrl
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specsim_base::{BlockAddr, MemorySystemConfig, NodeId, ProtocolVariant};
    use specsim_coherence::dir::DirMsg;
    use specsim_coherence::types::{CpuAccess, CpuRequest};
    use specsim_coherence::CacheController;

    #[test]
    fn replies_queue_behind_an_empty_output_only_and_leave_first() {
        let cache = DirCacheController::new(
            NodeId(0),
            ProtocolVariant::Full,
            &MemorySystemConfig::default(),
        );
        let mut c = Shared::new(cache);
        let checkpoint = c.clone();
        let inv = |addr| DirMsg::Inv {
            addr: BlockAddr(addr),
            requestor: NodeId(1),
        };
        // Nothing to send: popping does not copy the shared controller.
        assert_eq!(c.pop(), None);
        // An absent block's invalidation only replies: still shared.
        assert!(c.answer(|c| c.reply_only(inv(0x40))));
        assert!(Arc::ptr_eq(c.arc(), checkpoint.arc()));
        assert_eq!(c.queued(), 1);
        // Behind the controller's own output, the same message goes to the
        // controller, so it leaves after that output.
        let miss = CpuRequest {
            addr: BlockAddr(0x80),
            access: CpuAccess::Load,
            store_value: 0,
        };
        c.make_mut().cpu_request(0, miss);
        assert!(!c.answer(|c| c.reply_only(inv(0x100))));
        c.make_mut().handle_message(1, inv(0x100)).unwrap();
        assert_eq!(c.queued(), 3);
        let sent: Vec<_> = std::iter::from_fn(|| c.pop()).map(|m| m.msg).collect();
        assert_eq!(
            sent,
            [
                DirMsg::InvAck {
                    addr: BlockAddr(0x40)
                },
                DirMsg::GetS {
                    addr: BlockAddr(0x80)
                },
                DirMsg::InvAck {
                    addr: BlockAddr(0x100)
                },
            ]
        );
    }
}
