//! The Table IV testbed configuration descriptor.
//!
//! Static facts about the hardware and software the paper's testbed used
//! and their simulation counterparts — printed by the `table4` row of
//! the `experiments` bench and consumed by the RAN's OTA configuration
//! checks.

/// Table IV: hardware and software used for the testbed.
#[derive(Clone, Debug, PartialEq)]
pub struct TestbedConfig {
    /// Server CPU description.
    pub server_cpus: &'static str,
    /// Server memory / EPC.
    pub server_memory: &'static str,
    /// Operating system.
    pub server_os: &'static str,
    /// Kernel version.
    pub server_kernel: &'static str,
    /// Mobile country code.
    pub mcc: &'static str,
    /// Mobile network code.
    pub mnc: &'static str,
    /// Physical resource blocks.
    pub prbs: u32,
    /// Carrier frequency in GHz.
    pub frequency_ghz: f64,
    /// gNB radio unit.
    pub gnb_radio: &'static str,
    /// RAN software.
    pub ran_software: &'static str,
    /// COTS UE model.
    pub ue_model: &'static str,
    /// UE OS build required for attach (§V-B6).
    pub ue_os_build: &'static str,
    /// 5G core software version.
    pub core_version: &'static str,
    /// GSC version used for the P-AKA builds.
    pub gsc_version: &'static str,
}

impl TestbedConfig {
    /// The paper's testbed (Table IV + §IV-C/§V-A1).
    #[must_use]
    pub fn paper() -> Self {
        TestbedConfig {
            server_cpus: "2 x Intel Xeon Silver 4314 (SGXv2, 32 cores, 2.40 GHz)",
            server_memory: "512 GB DDR4, 16 GB combined EPC",
            server_os: "Ubuntu 20.04",
            server_kernel: "5.15.0-67-generic (in-kernel SGX driver)",
            mcc: "001",
            mnc: "01",
            prbs: 106,
            frequency_ghz: 3.6192,
            gnb_radio: "USRP x310",
            ran_software: "OAI develop branch",
            ue_model: "OnePlus 8 (Android 11)",
            ue_os_build: "Oxygen 11.0.11.11.IN21DA",
            core_version: "OAI 5G core v1.5.0",
            gsc_version: "GSC v1.4-1-ga60a499 (preheat, 4 threads, 512MB EPC)",
        }
    }

    /// The test PLMN string ("00101").
    #[must_use]
    pub fn plmn_string(&self) -> String {
        format!("{}{}", self.mcc, self.mnc)
    }
}
