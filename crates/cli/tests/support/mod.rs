//! A `mime serve --listen` front door spawned by a test.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, ExitStatus, Stdio};

/// The front door process and the address it announced. Dropping it
/// kills and reaps the front door, so a failed assertion cannot leave
/// the fleet running: its replicas exit on the EOF of their stdin pipe.
pub struct FrontDoor {
    child: Child,
    pub addr: String,
}

impl FrontDoor {
    /// Runs `mime <args>` and reads the kernel-assigned address from its
    /// first stdout line (`listening on <addr> …`).
    pub fn spawn(args: &[&str]) -> FrontDoor {
        let mut child = Command::new(env!("CARGO_BIN_EXE_mime"))
            .args(args)
            .stdout(Stdio::piped())
            .spawn()
            .expect("front door starts");
        let stdout = child.stdout.take().expect("piped stdout");
        // from here on the guard reaps the child, even if the line is bad
        let mut door = FrontDoor { child, addr: String::new() };
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line).expect("listening line");
        door.addr = line
            .split_whitespace()
            .nth(2)
            .unwrap_or_else(|| panic!("unparseable listening line: {line:?}"))
            .to_string();
        door
    }

    /// Waits for the front door to exit on its own (after a drain).
    pub fn wait(&mut self) -> ExitStatus {
        self.child.wait().expect("front door exits")
    }
}

impl Drop for FrontDoor {
    fn drop(&mut self) {
        // A front door that already exited was reaped by `wait`; killing
        // it again only returns an error, which there is no one to tell.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
