//! Cooling configurations (active fan vs. passive).

/// A cooling configuration for the board.
///
/// The paper collects all oracle traces with **active cooling (a fan)** to
/// avoid unpredictable DTM throttling, and then demonstrates that the
/// trained policy generalizes to **passive cooling (no fan)**. The two
/// configurations differ only in how well the board and package shed heat
/// to the ambient, which is what a fan physically changes.
///
/// # Examples
///
/// ```
/// use thermal::Cooling;
/// let fan = Cooling::fan();
/// let passive = Cooling::passive();
/// assert!(fan.board_to_ambient_g() > passive.board_to_ambient_g());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cooling {
    name: &'static str,
    board_to_ambient_g: f64,
    soc_to_ambient_g: f64,
    ambient_celsius: f64,
}

impl Cooling {
    /// Active cooling with a fan, as used for oracle trace collection.
    pub const fn fan() -> Self {
        Cooling {
            name: "fan",
            board_to_ambient_g: 0.55,
            soc_to_ambient_g: 0.12,
            ambient_celsius: 25.0,
        }
    }

    /// Passive cooling without a fan, used to test generalization.
    pub const fn passive() -> Self {
        Cooling {
            name: "no-fan",
            board_to_ambient_g: 0.22,
            soc_to_ambient_g: 0.05,
            ambient_celsius: 25.0,
        }
    }

    /// Returns a copy with a different ambient temperature (the paper uses
    /// an A/C room at a constant ambient).
    pub fn with_ambient(mut self, celsius: f64) -> Self {
        self.ambient_celsius = celsius;
        self
    }

    /// Human-readable name of this configuration.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Thermal conductance from the board to the ambient, in W/K.
    pub fn board_to_ambient_g(&self) -> f64 {
        self.board_to_ambient_g
    }

    /// Thermal conductance from the SoC package surface to the ambient
    /// (case convection), in W/K.
    pub fn soc_to_ambient_g(&self) -> f64 {
        self.soc_to_ambient_g
    }

    /// Ambient temperature in °C.
    pub fn ambient_celsius(&self) -> f64 {
        self.ambient_celsius
    }
}

impl Default for Cooling {
    fn default() -> Self {
        Cooling::fan()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fan_cools_better_than_passive() {
        assert!(Cooling::fan().board_to_ambient_g() > Cooling::passive().board_to_ambient_g());
        assert!(Cooling::fan().soc_to_ambient_g() > Cooling::passive().soc_to_ambient_g());
    }

    #[test]
    fn ambient_override() {
        let c = Cooling::fan().with_ambient(30.0);
        assert_eq!(c.ambient_celsius(), 30.0);
        assert_eq!(c.name(), "fan");
    }
}
