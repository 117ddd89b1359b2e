//! The PIM Instruction Queue.
//!
//! Commands from the processor core are "sequentially stored in the PIM
//! Instruction Queue" (paper, §II) before the controllers fetch them.
//! The queue is a bounded FIFO of encoded 64-bit words with high-water
//! statistics so experiments can size it.

use crate::encode::{decode, encode, DecodeError};
use crate::inst::PimInstruction;
use core::fmt;
use std::collections::VecDeque;

/// Error returned when pushing to a full queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueFullError {
    /// The queue's capacity.
    pub capacity: usize,
}

impl fmt::Display for QueueFullError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "instruction queue full (capacity {})", self.capacity)
    }
}

impl std::error::Error for QueueFullError {}

/// A bounded FIFO of encoded PIM instruction words.
///
/// # Examples
///
/// ```
/// use hhpim_isa::{InstructionQueue, PimInstruction};
/// let mut q = InstructionQueue::new(4);
/// q.push(PimInstruction::Nop).unwrap();
/// q.push(PimInstruction::Barrier).unwrap();
/// assert_eq!(q.pop().unwrap(), Ok(PimInstruction::Nop));
/// assert_eq!(q.len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstructionQueue {
    words: VecDeque<u64>,
    capacity: usize,
    high_water: usize,
    pushed_total: u64,
}

impl InstructionQueue {
    /// Creates a queue holding at most `capacity` instructions.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be non-zero");
        InstructionQueue {
            words: VecDeque::with_capacity(capacity),
            capacity,
            high_water: 0,
            pushed_total: 0,
        }
    }

    /// Maximum number of buffered instructions.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Instructions currently buffered.
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Whether the queue is full.
    pub fn is_full(&self) -> bool {
        self.words.len() == self.capacity
    }

    /// Highest simultaneous occupancy observed.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Total instructions ever pushed.
    pub fn pushed_total(&self) -> u64 {
        self.pushed_total
    }

    /// Enqueues an instruction (encoding it to its wire word).
    ///
    /// # Errors
    ///
    /// Returns [`QueueFullError`] when at capacity.
    pub fn push(&mut self, inst: PimInstruction) -> Result<(), QueueFullError> {
        self.push_word(encode(inst))
    }

    /// Enqueues a raw wire word (e.g. straight off the AXI bus). The word
    /// is *not* validated here; validation happens on [`Self::pop`], as
    /// in the hardware where the decoder sits behind the queue.
    ///
    /// # Errors
    ///
    /// Returns [`QueueFullError`] when at capacity.
    pub fn push_word(&mut self, word: u64) -> Result<(), QueueFullError> {
        if self.is_full() {
            return Err(QueueFullError {
                capacity: self.capacity,
            });
        }
        self.words.push_back(word);
        self.pushed_total += 1;
        self.high_water = self.high_water.max(self.words.len());
        Ok(())
    }

    /// Dequeues and decodes the oldest instruction. The outer `Option`
    /// is queue emptiness; the inner `Result` is decode validity.
    pub fn pop(&mut self) -> Option<Result<PimInstruction, DecodeError>> {
        self.words.pop_front().map(decode)
    }

    /// Peeks at the oldest instruction without consuming it.
    pub fn peek(&self) -> Option<Result<PimInstruction, DecodeError>> {
        self.words.front().map(|&w| decode(w))
    }

    /// Discards all buffered instructions.
    pub fn clear(&mut self) {
        self.words.clear();
    }
}

impl Extend<PimInstruction> for InstructionQueue {
    /// Extends the queue, panicking on overflow (use [`Self::push`] for
    /// fallible insertion).
    fn extend<I: IntoIterator<Item = PimInstruction>>(&mut self, iter: I) {
        for inst in iter {
            self.push(inst)
                .expect("instruction queue overflow in extend");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inst::{MemSelect, ModuleMask};

    #[test]
    fn fifo_order() {
        let mut q = InstructionQueue::new(8);
        q.push(PimInstruction::Nop).unwrap();
        q.push(PimInstruction::Barrier).unwrap();
        q.push(PimInstruction::Halt).unwrap();
        assert_eq!(q.pop().unwrap().unwrap(), PimInstruction::Nop);
        assert_eq!(q.pop().unwrap().unwrap(), PimInstruction::Barrier);
        assert_eq!(q.pop().unwrap().unwrap(), PimInstruction::Halt);
        assert!(q.pop().is_none());
    }

    #[test]
    fn capacity_enforced() {
        let mut q = InstructionQueue::new(2);
        q.push(PimInstruction::Nop).unwrap();
        q.push(PimInstruction::Nop).unwrap();
        assert_eq!(
            q.push(PimInstruction::Nop),
            Err(QueueFullError { capacity: 2 })
        );
        assert!(q.is_full());
    }

    #[test]
    fn high_water_tracks_peak() {
        let mut q = InstructionQueue::new(4);
        q.push(PimInstruction::Nop).unwrap();
        q.push(PimInstruction::Nop).unwrap();
        q.pop();
        q.pop();
        q.push(PimInstruction::Nop).unwrap();
        assert_eq!(q.high_water(), 2);
        assert_eq!(q.pushed_total(), 3);
    }

    #[test]
    fn corrupted_word_surfaces_decode_error() {
        let mut q = InstructionQueue::new(2);
        q.push_word(u64::MAX).unwrap();
        assert!(q.peek().unwrap().is_err());
        assert!(q.pop().unwrap().is_err());
    }

    #[test]
    fn extend_and_clear() {
        let mut q = InstructionQueue::new(8);
        q.extend([
            PimInstruction::ClearAcc {
                modules: ModuleMask::all(),
            },
            PimInstruction::Mac {
                modules: ModuleMask::all(),
                mem: MemSelect::Sram,
                addr: 0,
                count: 4,
            },
        ]);
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn error_display() {
        assert_eq!(
            QueueFullError { capacity: 7 }.to_string(),
            "instruction queue full (capacity 7)"
        );
    }
}
