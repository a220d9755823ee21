//! Property-based tests for the RC thermal network.

use hmc_types::{Celsius, SimDuration, Watts, NUM_CORES};
use proptest::prelude::*;
use thermal::{Cooling, RcNetworkBuilder, SocThermal};

proptest! {
    /// With non-negative power inputs, no node can ever fall below ambient.
    #[test]
    fn temperatures_never_fall_below_ambient(
        powers in proptest::collection::vec(0.0f64..3.0, NUM_CORES),
        steps in 1usize..200,
    ) {
        let mut soc = SocThermal::new(Cooling::fan());
        let core_powers: [Watts; NUM_CORES] =
            std::array::from_fn(|i| Watts::new(powers[i]));
        for _ in 0..steps {
            soc.step(&core_powers, [Watts::ZERO; 2], SimDuration::from_millis(50));
        }
        for core in hmc_types::CoreId::all() {
            prop_assert!(soc.core_temperature(core).value() >= 25.0 - 1e-9);
        }
    }

    /// More power never yields a lower steady-state sensor temperature
    /// (monotonicity of the linear thermal system).
    #[test]
    fn steady_state_monotone_in_power(base in 0.0f64..2.0, extra in 0.0f64..2.0) {
        let soc = SocThermal::new(Cooling::fan());
        let p1: [Watts; NUM_CORES] = [Watts::new(base); NUM_CORES];
        let p2: [Watts; NUM_CORES] = [Watts::new(base + extra); NUM_CORES];
        let t1 = soc.steady_state_sensor(&p1, [Watts::ZERO; 2]);
        let t2 = soc.steady_state_sensor(&p2, [Watts::ZERO; 2]);
        prop_assert!(t2.value() >= t1.value() - 1e-9);
    }

    /// Energy balance: in steady state, the heat flowing to ambient equals
    /// the injected power (checked via the analytic two-node solution).
    #[test]
    fn two_node_steady_state_energy_balance(p in 0.01f64..10.0, g_amb in 0.1f64..2.0) {
        let mut b = RcNetworkBuilder::new(25.0);
        let die = b.add_node(0.5, 0.0);
        let sink = b.add_node(5.0, g_amb);
        b.connect(die, sink, 2.0);
        let net = b.build();
        let ss = net.steady_state(&[Watts::new(p)]).unwrap();
        let outflow = g_amb * (ss[sink.index()].value() - 25.0);
        prop_assert!((outflow - p).abs() < 1e-6 * p.max(1.0));
    }

    /// Integration converges to the steady state regardless of step size.
    #[test]
    fn integration_step_size_independent(step_ms in 1u64..500) {
        let mut soc = SocThermal::new(Cooling::fan());
        let powers = [Watts::new(1.0); NUM_CORES];
        let target = soc.steady_state_sensor(&powers, [Watts::ZERO; 2]);
        let total_ms = 3_000_000u64; // 3000 s ≫ all time constants
        let steps = total_ms / step_ms;
        for _ in 0..steps {
            soc.step(&powers, [Watts::ZERO; 2], SimDuration::from_millis(step_ms));
        }
        prop_assert!((soc.sensor().value() - target.value()).abs() < 0.5);
    }
}

#[test]
fn cooling_configs_have_distinct_names() {
    assert_ne!(Cooling::fan().name(), Cooling::passive().name());
}

#[test]
fn ambient_override_shifts_steady_state() {
    let powers = [Watts::new(1.0); NUM_CORES];
    let cold = SocThermal::new(Cooling::fan().with_ambient(15.0))
        .steady_state_sensor(&powers, [Watts::ZERO; 2]);
    let warm = SocThermal::new(Cooling::fan().with_ambient(35.0))
        .steady_state_sensor(&powers, [Watts::ZERO; 2]);
    // Linear system: a 20 K ambient shift moves everything by 20 K.
    assert!((warm.degrees_above(cold) - 20.0).abs() < 1e-6);
    assert_eq!(
        SocThermal::new(Cooling::fan().with_ambient(15.0)).ambient(),
        Celsius::new(15.0)
    );
}
