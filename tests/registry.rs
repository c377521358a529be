//! The scheduler registry (`elsc_lab::SchedId`) is the one place a name
//! becomes a scheduler: every native row must parse back from its label,
//! build the design that reports that name, and have a defined oracle
//! contract.

use elsc_chaos::OracleMode;
use elsc_lab::SchedId;
use elsc_simcore::Topology;

#[test]
fn every_native_row_round_trips_and_has_an_oracle_mode() {
    for topo in [Topology::flat(2), "2N2C1T".parse().unwrap()] {
        for id in SchedId::NATIVE {
            let name = id.label();
            assert_eq!(name.parse::<SchedId>().unwrap(), id);
            assert!(!id.describe().is_empty(), "{name} is listed by `ls`");
            let sched = id.build(topo);
            assert_eq!(sched.name(), name);
            assert_eq!(sched.nr_running(), 0, "{name} starts empty");
            // Only the two designs the paper proves equivalent carry the
            // strict §5 claim; everything else is held to the invariants.
            let strict = matches!(id, SchedId::Reg | SchedId::Elsc);
            assert_eq!(
                OracleMode::for_scheduler(name) == OracleMode::Strict,
                strict,
                "{name}"
            );
        }
    }
    assert!("cfs".parse::<SchedId>().is_err());
}
