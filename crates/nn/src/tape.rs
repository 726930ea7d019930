//! The caller-owned record of a forward pass.

use secemb_tensor::Matrix;

/// The activations a backward pass reads, recorded by the forward pass
/// that produced them.
///
/// A layer's [`crate::Module::forward`] pushes what its
/// [`crate::Module::backward`] needs and backward pops it again, so a
/// model runs its layers backward in the reverse of their forward order
/// (a LIFO stack). The tape belongs to the caller, never to a layer: a
/// module holds its weights only, and the one forward serves training
/// and inference alike. [`Tape::inference`] records nothing and
/// allocates nothing.
#[derive(Debug)]
pub struct Tape {
    recording: bool,
    stack: Vec<Matrix>,
}

impl Tape {
    /// A tape that records every activation (training).
    pub fn training() -> Self {
        Tape {
            recording: true,
            stack: Vec::new(),
        }
    }

    /// A tape that records nothing (inference).
    pub fn inference() -> Self {
        Tape {
            recording: false,
            stack: Vec::new(),
        }
    }

    /// Whether this tape records.
    pub fn is_recording(&self) -> bool {
        self.recording
    }

    /// Records `value`; an inference tape drops it.
    pub fn push(&mut self, value: Matrix) {
        if self.recording {
            self.stack.push(value);
        }
    }

    /// Records a copy of `value`; an inference tape copies nothing.
    pub fn record(&mut self, value: &Matrix) {
        if self.recording {
            self.stack.push(value.clone());
        }
    }

    /// The most recent record, left in place.
    ///
    /// # Panics
    ///
    /// Panics if the tape is empty.
    pub fn last(&self) -> &Matrix {
        self.stack.last().expect("backward before forward")
    }

    /// Removes and returns the most recent record.
    ///
    /// # Panics
    ///
    /// Panics if the tape is empty: a backward without its forward, or
    /// after a forward on an inference tape.
    pub fn pop(&mut self) -> Matrix {
        self.stack.pop().expect("backward before forward")
    }

    /// Removes the last `n` records and returns them in the order they
    /// were recorded.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `n` records are held.
    pub fn pop_many(&mut self, n: usize) -> Vec<Matrix> {
        let at = (self.stack.len().checked_sub(n)).expect("backward before forward");
        self.stack.split_off(at)
    }

    /// Whether nothing is recorded (every backward has popped its
    /// forward's records).
    pub fn is_empty(&self) -> bool {
        self.stack.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_lifo_order_only_when_training() {
        let (a, b) = (Matrix::full(1, 1, 1.0), Matrix::full(1, 2, 2.0));
        let mut tape = Tape::training();
        tape.record(&a);
        tape.push(b.clone());
        assert_eq!(tape.last(), &b);
        assert_eq!(tape.pop(), b);
        assert_eq!(tape.pop(), a);
        assert!(tape.is_empty());
        tape.push(a.clone());
        tape.push(b.clone());
        assert_eq!(tape.pop_many(2), [a.clone(), b.clone()]);

        let mut tape = Tape::inference();
        tape.record(&a);
        tape.push(b);
        assert!(tape.is_empty() && !tape.is_recording());
    }

    #[test]
    #[should_panic(expected = "backward before forward")]
    fn popping_an_empty_tape_panics() {
        Tape::training().pop();
    }
}
