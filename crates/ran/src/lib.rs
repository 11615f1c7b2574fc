//! Radio access substrate: gNB, gNBSIM mass-registration driver, and a
//! full-stack COTS UE model.
//!
//! The paper uses two RAN entities: gNBSIM "to establish mass gNB-UE
//! connections with core on a large scale" (§V-A1) and, for the OTA
//! feasibility test, a USRP x310 as the OAI gNB with a OnePlus 8 as the
//! UE (§V-B6). This crate provides both:
//!
//! * [`usim`] — a USIM with real MILENAGE, SQN window management and
//!   ECIES SUCI concealment, programmed OpenCells-style with a PLMN.
//! * [`ue`] — a COTS UE: complete NAS registration state machine,
//!   security-mode handling, GUTI storage, PDU sessions and user-plane
//!   data — the spec-conformant path a real phone exercises.
//! * [`gnb`] — the gNB relay between the radio interface and the AMF
//!   (N2/NGAP), with RRC connection establishment costs.
//! * [`gnbsim`] — back-to-back mass registrations over a zero-cost radio
//!   (what the paper's performance experiments drive).
//! * [`workload`] — deterministic open-loop arrival traces (Poisson
//!   inter-arrivals over a subscriber population) for the pool-scaling
//!   experiments in `shield5g-scale`.
//! * [`ota`] — the §V-B6 over-the-air testbed: SDR gNB + OnePlus 8 over
//!   a realistic radio link, ending in an end-to-end data session, plus
//!   the session-setup/SGX-share measurement of §V-B4.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gnb;
pub mod gnbsim;
pub mod ota;
pub mod ue;
pub mod usim;
pub mod workload;

use std::error::Error;
use std::fmt;

/// Errors from the RAN layer.
#[derive(Debug)]
#[non_exhaustive]
pub enum RanError {
    /// The UE cannot detect the network (PLMN mismatch, §V-B6).
    NetworkNotFound {
        /// PLMN the SIM is programmed for.
        sim_plmn: String,
        /// PLMN the gNB broadcasts.
        broadcast_plmn: String,
    },
    /// The UE's OS build cannot complete an end-to-end connection
    /// (§V-B6: a specific Oxygen OS version was required).
    IncompatibleUeBuild(String),
    /// The network rejected the UE.
    Rejected {
        /// Which NAS message carried the rejection.
        stage: &'static str,
        /// Cause value or text.
        cause: String,
    },
    /// The UE rejected the network (mutual authentication failure).
    NetworkAuthenticationFailed(String),
    /// Transport failure on N2/Uu.
    Transport(shield5g_sim::SimError),
    /// Protocol violation (unexpected message).
    Protocol(String),
}

impl fmt::Display for RanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RanError::NetworkNotFound { sim_plmn, broadcast_plmn } => write!(
                f,
                "network not found: SIM programmed for PLMN {sim_plmn}, gNB broadcasts {broadcast_plmn}"
            ),
            RanError::IncompatibleUeBuild(b) => write!(f, "UE OS build {b:?} cannot attach"),
            RanError::Rejected { stage, cause } => write!(f, "rejected at {stage}: {cause}"),
            RanError::NetworkAuthenticationFailed(why) => {
                write!(f, "UE failed to authenticate the network: {why}")
            }
            RanError::Transport(e) => write!(f, "transport failure: {e}"),
            RanError::Protocol(why) => write!(f, "protocol violation: {why}"),
        }
    }
}

impl Error for RanError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RanError::Transport(e) => Some(e),
            _ => None,
        }
    }
}

impl From<shield5g_sim::SimError> for RanError {
    fn from(e: shield5g_sim::SimError) -> Self {
        RanError::Transport(e)
    }
}

/// A NAS / NGAP decode failure: a framing violation is the transport's,
/// implausible contents a protocol violation.
impl From<shield5g_nf::NfError> for RanError {
    fn from(e: shield5g_nf::NfError) -> Self {
        match e {
            shield5g_nf::NfError::Sim(e) => RanError::Transport(e),
            e => RanError::Protocol(e.to_string()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display() {
        let e = RanError::NetworkNotFound {
            sim_plmn: "00101".into(),
            broadcast_plmn: "99999".into(),
        };
        assert!(e.to_string().contains("00101"));
        assert!(RanError::IncompatibleUeBuild("x".into())
            .to_string()
            .contains('x'));
    }

    #[test]
    fn errors_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RanError>();
    }
}
