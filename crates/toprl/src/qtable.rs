//! The shared tabular Q-function.

use rand::RngExt;

use crate::state::{NUM_ACTIONS, NUM_STATES};

/// The Q-table shared by all per-application agents (2,304 entries, like
/// the paper reports).
///
/// # Examples
///
/// ```
/// use toprl::QTable;
/// let mut q = QTable::new();
/// q.update(3, 1, 0.5);
/// assert!(q.value(3, 1) > q.value(3, 0));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QTable {
    values: Vec<f32>,
}

impl QTable {
    /// Creates a table initialized with constant values (zero), as in the
    /// paper.
    pub fn new() -> Self {
        QTable {
            values: vec![0.0; NUM_STATES * NUM_ACTIONS],
        }
    }

    /// Total number of entries.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Returns `true` if the table is empty (never for the default shape).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The value of `(state, action)`.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    pub fn value(&self, state: usize, action: usize) -> f32 {
        assert!(
            state < NUM_STATES && action < NUM_ACTIONS,
            "index out of range"
        );
        self.values[state * NUM_ACTIONS + action]
    }

    /// Sets the raw value of `(state, action)` (used when loading a
    /// pre-trained table).
    pub fn update(&mut self, state: usize, action: usize, value: f32) {
        assert!(
            state < NUM_STATES && action < NUM_ACTIONS,
            "index out of range"
        );
        self.values[state * NUM_ACTIONS + action] = value;
    }

    /// The greedy action and its value in `state`.
    pub fn best_action(&self, state: usize) -> (usize, f32) {
        let row = &self.values[state * NUM_ACTIONS..(state + 1) * NUM_ACTIONS];
        let mut best = (0usize, row[0]);
        for (a, &v) in row.iter().enumerate().skip(1) {
            if v > best.1 {
                best = (a, v);
            }
        }
        best
    }

    /// The maximum Q-value in `state`.
    pub fn max_value(&self, state: usize) -> f32 {
        self.best_action(state).1
    }

    /// ε-greedy action selection.
    pub fn epsilon_greedy<R: RngExt + ?Sized>(
        &self,
        state: usize,
        epsilon: f64,
        rng: &mut R,
    ) -> usize {
        if rng.random::<f64>() < epsilon {
            rng.random_range(0..NUM_ACTIONS)
        } else {
            self.best_action(state).0
        }
    }

    /// One Q-learning update:
    /// `Q(s,a) ← Q(s,a) + α · (r + γ·max_a' Q(s',a') − Q(s,a))`.
    /// Pass `next_state = None` for a terminal transition (the application
    /// finished).
    pub fn learn(
        &mut self,
        state: usize,
        action: usize,
        reward: f32,
        next_state: Option<usize>,
        alpha: f32,
        gamma: f32,
    ) {
        let target = reward + next_state.map_or(0.0, |s| gamma * self.max_value(s));
        let idx = state * NUM_ACTIONS + action;
        self.values[idx] += alpha * (target - self.values[idx]);
    }

    /// Number of entries that have been touched by learning.
    pub fn nonzero_entries(&self) -> usize {
        self.values.iter().filter(|&&v| v != 0.0).count()
    }

    /// The raw values, row-major by state (for persistence).
    pub fn values(&self) -> &[f32] {
        &self.values
    }

    /// Rebuilds a table from raw values (the checkpoint-restore path).
    ///
    /// # Errors
    ///
    /// Rejects a value count other than `NUM_STATES × NUM_ACTIONS` and any
    /// non-finite entry.
    pub fn from_values(values: Vec<f32>) -> Result<QTable, String> {
        if values.len() != NUM_STATES * NUM_ACTIONS {
            return Err(format!(
                "Q-table carries {} values, expected {}",
                values.len(),
                NUM_STATES * NUM_ACTIONS
            ));
        }
        if let Some(i) = values.iter().position(|v| !v.is_finite()) {
            return Err(format!("Q-table value {i} is not finite"));
        }
        Ok(QTable { values })
    }
}

impl Default for QTable {
    fn default() -> Self {
        QTable::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn shape_matches_paper() {
        assert_eq!(QTable::new().len(), 2304);
    }

    #[test]
    fn learning_moves_toward_target() {
        let mut q = QTable::new();
        q.learn(0, 2, 10.0, None, 0.5, 0.8);
        assert_eq!(q.value(0, 2), 5.0);
        q.learn(0, 2, 10.0, None, 0.5, 0.8);
        assert_eq!(q.value(0, 2), 7.5);
    }

    #[test]
    fn bootstrap_uses_next_state_max() {
        let mut q = QTable::new();
        q.update(1, 4, 20.0);
        q.learn(0, 0, 0.0, Some(1), 1.0, 0.5);
        assert_eq!(q.value(0, 0), 10.0); // 0 + 0.5 * 20
    }

    #[test]
    fn greedy_picks_max_and_epsilon_explores() {
        let mut q = QTable::new();
        q.update(5, 3, 1.0);
        assert_eq!(q.best_action(5), (3, 1.0));
        let mut rng = StdRng::seed_from_u64(0);
        // ε = 1: uniform over actions, must eventually differ from greedy.
        let explored: Vec<usize> = (0..50)
            .map(|_| q.epsilon_greedy(5, 1.0, &mut rng))
            .collect();
        assert!(explored.iter().any(|&a| a != 3));
        // ε = 0: always greedy.
        assert!((0..20).all(|_| q.epsilon_greedy(5, 0.0, &mut rng) == 3));
    }

    #[test]
    fn repeated_learning_converges_to_reward() {
        let mut q = QTable::new();
        for _ in 0..500 {
            q.learn(7, 1, 42.0, None, 0.05, 0.8);
        }
        assert!((q.value(7, 1) - 42.0).abs() < 0.5);
    }
}
