//! The TCP/IP host: a complete, functional protocol stack instance.
//!
//! One `TcpIpHost` is one machine of the paper's testbed: TCPTEST on TCP
//! on IP on VNET on ETH on the LANCE driver.  All protocol processing is
//! real — sequence numbers, checksums, retransmission, fragmentation —
//! and every step records its KIR segments so the execution can be
//! replayed against any code layout.

use std::collections::HashMap;

use kcode::{DataLayout, Recorder};
use netsim::frame::{EtherType, Frame, MacAddr};
use netsim::lance::LanceTiming;
use netsim::Ns;
use xkernel::event::EventSet;
use xkernel::map::{LookupKind, Map};
use xkernel::msg::{Msg, MsgPool};
use xkernel::process::StackPool;

use super::hdr::{flags, seq, IpHdr, TcpHdr, IPPROTO_TCP};
use super::model::TcpIpModel;
use super::tcb::{RexmitEntry, Tcb, TcpState};
use crate::checksum;
use crate::driver::LanceDriver;
use crate::libmodel::LibModels;
use crate::options::StackOptions;
use crate::Host;

/// Timer payloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerKind {
    Rexmit,
    DelAck,
    /// Zero-window persist probe.
    Persist,
}

/// Retransmission timeout.
pub const RTO_NS: Ns = 2_000_000; // 2 ms on the isolated LAN
/// Delayed-ACK timeout.
pub const DELACK_NS: Ns = 1_000_000;
/// Persist (window-probe) interval.
pub const PERSIST_NS: Ns = 3_000_000;

/// A complete TCP/IP endpoint.
pub struct TcpIpHost {
    pub name: &'static str,
    pub opts: StackOptions,
    pub rec: Recorder,
    pub lib: LibModels,
    pub model: TcpIpModel,
    pub lance: LanceDriver,
    pub pool: MsgPool,
    pub stacks: StackPool,
    pub timers: EventSet<TimerKind>,

    pub ip_addr: u32,
    pub peer_ip: u32,
    pub mac: MacAddr,
    pub peer_mac: MacAddr,

    pub tcb: Tcb,
    /// Demux map: (local port, remote port) → connection index.
    pub pcb_map: Map<(u16, u16), u32>,
    /// IP protocol demux map: proto → protocol index.
    pub proto_map: Map<u8, u32>,

    pub data: DataLayout,
    tcb_addr: u64,
    ip_ident: u16,
    /// IP reassembly: ident → accumulated (offset, bytes, more-frags).
    reass: HashMap<u16, Vec<(usize, Vec<u8>, bool)>>,

    /// Payloads delivered to the application.
    pub delivered: Vec<Vec<u8>>,
    /// Wire bytes handed to the medium this step.
    pub tx_wire: Vec<Vec<u8>>,
    /// Echo every delivered payload back (server behaviour).
    pub echo_server: bool,
}

impl TcpIpHost {
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: &'static str,
        model: TcpIpModel,
        lance_model: crate::driver::LanceModel,
        lib: LibModels,
        data: DataLayout,
        opts: StackOptions,
        ip_addr: u32,
        peer_ip: u32,
        mac: MacAddr,
        peer_mac: MacAddr,
        timing: LanceTiming,
    ) -> Self {
        let lance = LanceDriver::new(lance_model, &data, timing);
        let pool = MsgPool::new(16, 2048, data.addr(lib.pool_region, 0) + 0x10000);
        let stacks = StackPool::new(8, 16 * 1024, data.stack_top());
        let tcb_addr = data.addr(model.tcb_region, 0);
        let mut pcb_map = Map::new(64);
        let mut proto_map = Map::new(32);
        proto_map.bind(IPPROTO_TCP as u64, IPPROTO_TCP, 0);
        let tcb = Tcb::new(TcpIpModel::PORT, TcpIpModel::PORT);
        pcb_map.bind(
            Self::pcb_hash(TcpIpModel::PORT, TcpIpModel::PORT),
            (TcpIpModel::PORT, TcpIpModel::PORT),
            0,
        );
        let mut pool = pool;
        pool.shortcircuit = opts.msg_refresh_shortcircuit;
        TcpIpHost {
            name,
            opts,
            rec: Recorder::new(),
            lib,
            model,
            lance,
            pool,
            stacks,
            timers: EventSet::new(),
            ip_addr,
            peer_ip,
            mac,
            peer_mac,
            tcb,
            pcb_map,
            proto_map,
            data,
            tcb_addr,
            ip_ident: 1,
            reass: HashMap::new(),
            delivered: Vec::new(),
            tx_wire: Vec::new(),
            echo_server: false,
        }
    }

    fn pcb_hash(lp: u16, rp: u16) -> u64 {
        ((lp as u64) << 16 | rp as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    // ---- connection management ----------------------------------------

    /// Active open: send SYN.
    pub fn connect(&mut self, now: Ns) {
        self.tcb.state = TcpState::SynSent;
        self.tcb.iss = 0x1000;
        self.tcb.snd_una = self.tcb.iss;
        self.tcb.snd_nxt = self.tcb.iss;
        self.rec.enter(self.model.f_test_send);
        self.rec.seg(self.model.s_test_prep);
        self.send_segment(flags::SYN, &[], now, self.model.s_test_call_tcp, true);
        self.rec.leave();
    }

    /// Passive open.
    pub fn listen(&mut self) {
        self.tcb.state = TcpState::Listen;
    }

    pub fn is_established(&self) -> bool {
        self.tcb.state == TcpState::Established
    }

    // ---- application interface -----------------------------------------

    /// TCPTEST: send `payload` on the connection.
    ///
    /// If the peer has closed its receive window, the data is queued and
    /// the persist timer takes over (zero-window probing).
    pub fn app_send(&mut self, payload: &[u8], now: Ns) {
        if self.is_established() && self.tcb.usable_window() == 0 {
            self.tcb.pending_send.extend_from_slice(payload);
            if self.tcb.persist_timer.is_none() {
                self.tcb.persist_timer =
                    Some(self.timers.schedule(now + PERSIST_NS, TimerKind::Persist));
            }
            return;
        }
        self.rec.enter(self.model.f_test_send);
        self.rec.seg(self.model.s_test_prep);
        self.send_segment(flags::ACK | flags::PSH, payload, now, self.model.s_test_call_tcp, true);
        self.rec.leave();
    }

    /// Inner send: through tcp_usrsend into tcp_output.  `via_usrsend`
    /// is false when tcp_output is invoked directly (pure ACKs, timer
    /// retransmissions).
    fn send_segment(
        &mut self,
        mut fl: u8,
        payload: &[u8],
        now: Ns,
        call_site: kcode::SegId,
        via_usrsend: bool,
    ) {
        let mut msg = self.pool.alloc();
        msg.append(payload);
        let msg_addr = msg.sim_addr();
        if via_usrsend {
            self.rec.call_with(call_site, self.model.f_tcp_usrsend, &[msg_addr]);
            self.rec.seg(self.model.s_usr_append);
            self.lib.msg.call_push(&mut self.rec, self.model.s_usr_push_site, msg_addr);
            self.rec.call_with(self.model.s_usr_call_out, self.model.f_tcp_output, &[msg_addr]);
        } else {
            self.rec.call_with(call_site, self.model.f_tcp_output, &[msg_addr]);
        }
        // Piggyback any pending ACK.
        if self.tcb.ack_pending {
            fl |= flags::ACK;
            self.tcb.ack_pending = false;
        }
        self.tcp_output(fl, payload, &mut msg, now);
        self.rec.leave(); // tcp_output
        if via_usrsend {
            self.rec.leave(); // tcp_usrsend
        }
        self.pool.release(msg);
    }

    /// TCP output processing (already inside the recorded activation).
    fn tcp_output(&mut self, fl: u8, payload: &[u8], msg: &mut Msg, now: Ns) {
        let m = self.model.clone();
        self.rec.seg(m.s_out_checks);

        // Window-update check: is the advertised window lagging by more
        // than ~a third of the maximum window?
        let win = self.tcb.rcv_wnd;
        let lag = self.tcb.rcv_adv.wrapping_sub(self.tcb.rcv_nxt);
        let threshold = if self.opts.avoid_division {
            // 33%-ish via shift and add: win/4 + win/16.
            self.rec.seg(m.s_out_shift);
            (win >> 2) + (win >> 4)
        } else {
            // 35% via multiply + software divide.
            self.lib.div.call(&mut self.rec, m.s_out_div_site, win as u64 * 35);
            win * 35 / 100
        };
        let send_winupd = (win.saturating_sub(lag)) >= threshold;
        self.rec.cond(m.s_out_winupd, send_winupd);

        // Build the TCP header (prepend to the message).
        self.lib.msg.call_push(&mut self.rec, m.s_out_push_site, msg.sim_addr());
        let hdr = TcpHdr {
            src_port: self.tcb.local_port,
            dst_port: self.tcb.remote_port,
            seq: self.tcb.snd_nxt,
            ack: self.tcb.rcv_nxt,
            flags: fl,
            window: win.min(0xffff) as u16,
            urgent: 0,
        };
        self.rec.seg(m.s_out_hdr);
        let mut segment = Vec::with_capacity(TcpHdr::LEN + payload.len());
        hdr.encode(&[], &mut segment);
        segment.extend_from_slice(payload);
        let ck = checksum::in_cksum_pseudo(self.ip_addr, self.peer_ip, IPPROTO_TCP, &segment);
        TcpHdr::seal(&mut segment, ck);
        self.lib.cksum.call(
            &mut self.rec,
            m.s_out_cksum_site,
            msg.sim_addr(),
            segment.len(),
        );
        {
            let h = msg.push(TcpHdr::LEN);
            h.copy_from_slice(&segment[..TcpHdr::LEN]);
        }

        // Advance send state and queue for retransmission.
        let seq_consumed = payload.len() as u32
            + (fl & flags::SYN != 0) as u32
            + (fl & flags::FIN != 0) as u32;
        let has_data = seq_consumed > 0;
        self.rec.cond(m.s_out_rexmit, has_data);
        if has_data {
            self.tcb.rexmit_q.push(RexmitEntry {
                seq: self.tcb.snd_nxt,
                flags: fl,
                payload: payload.to_vec(),
            });
            self.tcb.snd_nxt = self.tcb.snd_nxt.wrapping_add(seq_consumed);
            self.lib.event.call_schedule(&mut self.rec, m.s_out_timer_site);
            if let Some(t) = self.tcb.rexmit_timer.take() {
                self.timers.cancel(t);
            }
            self.tcb.rexmit_timer = Some(self.timers.schedule(now + RTO_NS, TimerKind::Rexmit));
        }
        self.tcb.last_ack_sent = self.tcb.rcv_nxt;
        self.tcb.rcv_adv = self.tcb.rcv_nxt.wrapping_add(win);
        self.tcb.segs_sent += 1;

        if let Some(s) = m.s_out_minor {
            self.rec.seg(s);
        }

        // Down to IP.
        self.rec.call_with(m.s_out_call_ip, m.f_ip_output, &[msg.sim_addr()]);
        self.ip_output(&segment, msg);
        self.rec.leave();
    }

    /// IP output: header, optional fragmentation, down through VNET/ETH.
    fn ip_output(&mut self, tcp_bytes: &[u8], msg: &mut Msg) {
        let m = self.model.clone();
        self.rec.seg(m.s_ipo_hdr);
        self.rec.seg(m.s_ipo_cksum);
        if let Some(site) = m.s_ipo_mlen_site {
            self.lib_msglen(site, msg.sim_addr());
        }

        let mtu_payload = netsim::frame::MTU - IpHdr::LEN;
        let needs_frag = tcp_bytes.len() > mtu_payload;
        self.rec.cond(m.s_ipo_frag_test, needs_frag);

        let ident = self.ip_ident;
        self.ip_ident = self.ip_ident.wrapping_add(1);

        if !needs_frag {
            self.ip_packet(ident, 0, tcp_bytes, msg);
        } else {
            // Fragment on 8-byte boundaries.
            let chunk = mtu_payload & !7;
            let nfrags = tcp_bytes.len().div_ceil(chunk);
            self.rec.loop_iters(m.s_ipo_frag_loop, nfrags as u32);
            for (i, part) in tcp_bytes.chunks(chunk).enumerate() {
                let off = i * chunk;
                let mf = if off + part.len() < tcp_bytes.len() { IpHdr::MF } else { 0 };
                self.ip_packet(ident, mf | ((off / 8) as u16), part, msg);
            }
        }
    }

    /// One datagram: the sealed header and `body` in one buffer, sized
    /// once, handed down to VNET/ETH.
    fn ip_packet(&mut self, ident: u16, frag: u16, body: &[u8], msg: &mut Msg) {
        let hdr = IpHdr {
            tos: 0,
            total_len: (IpHdr::LEN + body.len()) as u16,
            ident,
            frag,
            ttl: 64,
            proto: IPPROTO_TCP,
            src: self.ip_addr,
            dst: self.peer_ip,
        };
        let mut packet = Vec::with_capacity(IpHdr::LEN + body.len());
        hdr.encode(&[], &mut packet);
        let ck = checksum::in_cksum(&packet);
        IpHdr::seal(&mut packet, ck);
        packet.extend_from_slice(body);
        self.vnet_eth_out(packet, msg);
    }

    /// VNET routing and Ethernet framing, then the driver.
    fn vnet_eth_out(&mut self, packet: Vec<u8>, msg: &mut Msg) {
        let m = self.model.clone();
        self.rec.call_with(m.s_ipo_call_vnet, m.f_vnet_output, &[msg.sim_addr()]);
        self.rec.seg(m.s_vnet_route);

        self.rec.call_with(m.s_vnet_call_eth, m.f_eth_output, &[msg.sim_addr()]);
        self.rec.seg(m.s_etho_hdr);
        self.rec.seg(m.s_etho_arp);
        if let Some(site) = m.s_etho_mlen_site {
            self.lib_msglen(site, msg.sim_addr());
        }
        let frame = Frame::new(self.peer_mac, self.mac, EtherType::Ipv4, packet);

        self.rec.callsite(m.s_etho_call_drv);
        if let Some(bytes) = self.lance.transmit(&mut self.rec, &self.opts, &frame) {
            self.tx_wire.push(bytes);
        }
        self.rec.leave(); // eth_output
        self.rec.leave(); // vnet_output
    }

    fn lib_msglen(&mut self, site: kcode::SegId, msg_addr: u64) {
        self.rec.call_with(site, self.model.f_msglen, &[msg_addr]);
        self.rec.seg(self.model.s_msglen);
        self.rec.leave();
    }
}

// ---- input path -----------------------------------------------------------

impl Host for TcpIpHost {
    fn deliver_wire(&mut self, bytes: &[u8], now: Ns) {
        let m = self.model.clone();
        self.rec.enter(m.f_intr);
        self.rec.seg(m.s_intr_dispatch);

        // Driver receive half.
        let mut msg = self.pool.alloc();
        let msg_addr = msg.sim_addr();
        self.rec.callsite(m.s_intr_call_rx);
        let frame = {
            let lib = self.lib.clone();
            self.lance
                .receive(&mut self.rec, &lib, &self.opts, bytes, msg_addr)
        };

        if let Some(frame) = frame {
            // Optional classifier (PIN/ALL on a shared network).
            if self.opts.classifier_enabled {
                let cls = self.model.classifier.clone();
                cls.classify(&mut self.rec, bytes, msg_addr);
            }
            msg.append(&frame.payload);
            self.rec.callsite(m.s_intr_call_demux);
            self.eth_demux(frame, &mut msg, now);
        }

        // Refresh the pool buffer (the paper's §2.2.2 optimization).
        let fast = self.opts.msg_refresh_shortcircuit && msg.refs() == 1;
        self.rec.cond(m.s_intr_refresh, fast);
        if !fast {
            self.lib.msg.call_destroy(&mut self.rec, m.s_intr_destroy_site, msg_addr, true);
            self.lib.alloc.call_malloc(&mut self.rec, m.s_intr_alloc_site);
        }
        self.pool.refresh(&mut msg);
        self.pool.release(msg);

        self.rec.leave();
    }

    fn take_episode(&mut self) -> kcode::EventStream {
        self.rec.take()
    }

    fn take_tx(&mut self) -> Vec<Vec<u8>> {
        std::mem::take(&mut self.tx_wire)
    }
}

impl TcpIpHost {
    fn eth_demux(&mut self, frame: Frame, msg: &mut Msg, now: Ns) {
        let m = self.model.clone();
        self.rec.enter_with(m.f_eth_demux, &[msg.sim_addr()]);
        self.rec.seg(m.s_ethd_parse);
        let is_ip = frame.ethertype == EtherType::Ipv4;
        self.rec.cond(m.s_ethd_type, is_ip);
        if is_ip {
            self.lib.msg.call_pop(&mut self.rec, m.s_ethd_pop_site, msg.sim_addr());
            self.rec.call_with(m.s_ethd_call_ip, m.f_ip_demux, &[msg.sim_addr()]);
            self.ip_demux(&frame.payload, msg, now);
            self.rec.leave();
        }
        self.rec.leave();
    }

    fn ip_demux(&mut self, packet: &[u8], msg: &mut Msg, now: Ns) {
        let m = self.model.clone();
        self.rec.seg(m.s_ipd_validate);
        self.rec.seg(m.s_ipd_cksum);

        // Structural rungs, then the header checksum: a bad header is
        // dropped (validation already charged).
        let Ok((hdr, hdr_len)) = IpHdr::parse(packet) else {
            return;
        };
        if !checksum::verify(&packet[..hdr_len]) {
            return;
        }
        let body = &packet[hdr_len..hdr.total_len as usize];

        let fragmented = hdr.more_fragments() || hdr.frag_offset_bytes() > 0;
        self.rec.cond(m.s_ipd_frag, fragmented);
        let assembled: Vec<u8>;
        let segment = if fragmented {
            let entry = self.reass.entry(hdr.ident).or_default();
            entry.push((hdr.frag_offset_bytes(), body.to_vec(), hdr.more_fragments()));
            self.rec.loop_iters(m.s_ipd_reass_loop, entry.len() as u32);
            // Complete when a no-MF fragment exists and offsets are
            // contiguous from zero.
            let mut parts = entry.clone();
            parts.sort_by_key(|(o, _, _)| *o);
            let mut expect = 0usize;
            let mut done = false;
            for (o, b, mf) in &parts {
                if *o != expect {
                    break;
                }
                expect += b.len();
                if !mf {
                    done = true;
                    break;
                }
            }
            if !done {
                return; // wait for more fragments
            }
            assembled = parts.into_iter().flat_map(|(_, b, _)| b).collect();
            self.reass.remove(&hdr.ident);
            &assembled[..]
        } else {
            body
        };

        // Protocol demux through the map (one-entry cache).
        let (found, kind) = self.proto_map.lookup(hdr.proto as u64, &hdr.proto);
        self.record_map_lookup(kind, m.s_ipd_map_hit, m.s_ipd_map_site, msg.sim_addr());
        if found.is_none() {
            return; // unknown protocol: drop
        }

        self.lib.msg.call_pop(&mut self.rec, m.s_ipd_pop_site, msg.sim_addr());
        self.rec.call_with(m.s_ipd_call_tcp, m.f_tcp_demux, &[msg.sim_addr()]);
        self.tcp_demux(&hdr, segment, msg, now);
        self.rec.leave();
    }

    fn record_map_lookup(
        &mut self,
        kind: LookupKind,
        hit_seg: kcode::SegId,
        site: kcode::SegId,
        key_addr: u64,
    ) {
        if self.opts.inline_map_cache {
            let hit = kind == LookupKind::CacheHit;
            self.rec.cond(hit_seg, hit);
            if !hit {
                self.lib.map.call(&mut self.rec, site, key_addr, false, 1);
            }
        } else {
            self.lib.map.call(
                &mut self.rec,
                site,
                key_addr,
                kind == LookupKind::CacheHit,
                1,
            );
        }
    }

    fn tcp_demux(&mut self, ip: &IpHdr, segment: &[u8], msg: &mut Msg, now: Ns) {
        let m = self.model.clone();
        self.rec.seg(m.s_tcpd_key);
        // Peek ports to build the demux key.
        if segment.len() < TcpHdr::LEN {
            return;
        }
        let sp = u16::from_be_bytes([segment[0], segment[1]]);
        let dp = u16::from_be_bytes([segment[2], segment[3]]);
        let key = (dp, sp);
        let (conn, kind) = self.pcb_map.lookup(Self::pcb_hash(key.0, key.1), &key);
        self.record_map_lookup(kind, m.s_tcpd_map_hit, m.s_tcpd_map_site, msg.sim_addr());
        if conn.is_none() {
            return; // no listener: drop (a RST in a fuller stack)
        }
        self.rec
            .call_with(m.s_tcpd_call_input, m.f_tcp_input, &[msg.sim_addr(), self.tcb_addr]);
        self.tcp_input(ip, segment, msg, now);
        self.rec.leave();
    }

    /// TCP input processing (inside the recorded f_tcp_input activation).
    fn tcp_input(&mut self, ip: &IpHdr, segment: &[u8], msg: &mut Msg, now: Ns) {
        let m = self.model.clone();
        self.rec.seg(m.s_in_parse);
        self.lib.cksum.call(&mut self.rec, m.s_in_cksum_site, msg.sim_addr(), segment.len());

        let Ok((hdr, doff)) = TcpHdr::parse(segment) else {
            return; // malformed header: drop
        };
        if !checksum::verify_pseudo(ip.src, ip.dst, IPPROTO_TCP, segment) {
            return; // checksum failure: drop
        }
        let payload = &segment[doff..];
        self.tcb.segs_received += 1;

        // Header prediction (when compiled in): predicts a pure in-order
        // ACK or pure in-order data segment.  Bi-directional traffic
        // carries data+ACK, so the prediction fails.
        if self.opts.header_prediction {
            let pure_ack = hdr.flags == flags::ACK && payload.is_empty();
            let pure_data =
                hdr.flags & flags::ACK != 0 && !payload.is_empty() && hdr.ack == self.tcb.snd_una;
            let hit = (pure_ack || pure_data) && hdr.seq == self.tcb.rcv_nxt;
            self.rec.cond(m.s_in_hdr_pred, hit);
            if hit {
                self.tcb.pred_hits += 1;
            } else {
                self.tcb.pred_misses += 1;
            }
        }

        self.rec.seg(m.s_in_state);
        let established = self.tcb.state == TcpState::Established;
        self.rec.cond(m.s_in_slowpath, !established);
        if !established {
            self.tcp_input_slowpath(&hdr, now);
            return;
        }

        // Sequence check.  A data segment needs room in the receive
        // window; a zero-length segment (pure ACK) only needs the right
        // sequence number — with a closed window even an in-order data
        // byte (a window probe) is rejected-but-acknowledged.
        let in_order = hdr.seq == self.tcb.rcv_nxt;
        let in_window = if payload.is_empty() {
            in_order
        } else {
            self.tcb.rcv_wnd > 0
                && (in_order
                    || (seq::geq(hdr.seq, self.tcb.rcv_nxt)
                        && seq::lt(
                            hdr.seq,
                            self.tcb.rcv_nxt.wrapping_add(self.tcb.rcv_wnd),
                        )))
        };
        self.rec.cond(m.s_in_seq, !in_window);
        if !in_window {
            // Old duplicate: ACK it and drop.
            self.tcb.ack_pending = true;
            self.send_pure_ack(now);
            return;
        }

        // ACK processing.
        self.rec.seg(m.s_in_ack);
        if hdr.flags & flags::ACK != 0 {
            let acked = self.tcb.process_ack(hdr.ack);
            if acked > 0 && self.tcb.rexmit_q.is_empty() {
                self.tcb.probe_outstanding = false;
            }
            if acked > 0 {
                if self.tcb.rexmit_q.is_empty() {
                    self.lib.event.call_cancel(&mut self.rec, m.s_in_timer_site);
                    if let Some(t) = self.tcb.rexmit_timer.take() {
                        self.timers.cancel(t);
                    }
                }
                // Congestion window growth: the improved kernel tests for
                // the fully-open common case first.
                if self.opts.avoid_division {
                    let needed = !self.tcb.cwnd_fully_open();
                    self.rec.cond(m.s_in_cwnd, needed);
                    if needed && self.tcb.grow_cwnd(acked) && self.tcb.snd_cwnd >= self.tcb.ssthresh
                    {
                        self.lib.div.call(
                            &mut self.rec,
                            m.s_in_cwnd_div_site,
                            (self.tcb.mss * self.tcb.mss) as u64,
                        );
                    }
                } else {
                    // Original code: unconditional update arithmetic.
                    self.rec.cond(m.s_in_cwnd, true);
                    self.tcb.grow_cwnd(acked);
                    self.lib.div.call(
                        &mut self.rec,
                        m.s_in_cwnd_div_site,
                        (self.tcb.mss * self.tcb.mss) as u64,
                    );
                }
            }
            let was_closed = self.tcb.snd_wnd == 0;
            self.tcb.snd_wnd = hdr.window as u32;
            if was_closed && self.tcb.snd_wnd > 0 && !self.tcb.pending_send.is_empty() {
                // Window opened: release queued data (recorded as a
                // fresh application send once this input episode ends).
                let data = std::mem::take(&mut self.tcb.pending_send);
                if let Some(t) = self.tcb.persist_timer.take() {
                    self.timers.cancel(t);
                }
                let data2 = data.clone();
                self.rec.call_with(m.s_in_call_out, m.f_tcp_output, &[self.tcb_addr]);
                let mut msg = self.pool.alloc();
                msg.append(&data2);
                self.tcp_output(flags::ACK | flags::PSH, &data2, &mut msg, now);
                self.rec.leave();
                self.pool.release(msg);
            }
        }

        // Data processing.
        let has_data = !payload.is_empty();
        self.rec.cond(m.s_in_data, has_data && in_order);
        if has_data {
            if in_order {
                self.tcb.rcv_nxt = self.tcb.rcv_nxt.wrapping_add(payload.len() as u32);
                self.tcb.ack_pending = true;
                self.rec.cond(m.s_in_ooo, false);
                // Wake the user thread and deliver — including any
                // reassembly-queue segments this one unblocked, so the
                // echo service sees them too.
                self.lib.thread.call_sem_signal(&mut self.rec, m.s_in_wake_site);
                let mut deliveries = vec![payload.to_vec()];
                deliveries.extend(self.drain_reass_q());
                for data in deliveries {
                    self.rec
                        .call_with(m.s_in_call_deliver, m.f_test_deliver, &[msg.sim_addr()]);
                    self.tcptest_deliver(&data, now);
                    self.rec.leave();
                }
            } else {
                // Out of order: queue for later.
                self.rec.cond(m.s_in_ooo, true);
                self.tcb.reass_q.push((hdr.seq, payload.to_vec()));
                self.tcb.ack_pending = true;
            }
        }

        // FIN processing (teardown).
        if hdr.flags & flags::FIN != 0 && in_order {
            self.tcb.rcv_nxt = self.tcb.rcv_nxt.wrapping_add(1);
            self.tcb.ack_pending = true;
            self.tcb.state = match self.tcb.state {
                TcpState::Established => TcpState::CloseWait,
                TcpState::FinWait1 | TcpState::FinWait2 => TcpState::TimeWait,
                s => s,
            };
        }

        // Send an ACK now or leave it pending for piggybacking.  The
        // echo server piggybacks on its reply — but only a data segment
        // produces one, so FINs and window updates still need the timer.
        let must_ack = self.tcb.ack_pending && (!self.echo_server || !has_data);
        self.rec.cond(m.s_in_ack_out, must_ack);
        if must_ack {
            // Delayed ACK: arm the timer; a prompt reply will piggyback.
            self.timers.schedule(now + DELACK_NS, TimerKind::DelAck);
        }
    }

    /// Handshake and teardown transitions (the cold slow path).
    fn tcp_input_slowpath(&mut self, hdr: &TcpHdr, now: Ns) {
        match self.tcb.state {
            TcpState::Listen if hdr.flags & flags::SYN != 0 => {
                self.tcb.irs = hdr.seq;
                self.tcb.rcv_nxt = hdr.seq.wrapping_add(1);
                self.tcb.iss = 0x8000;
                self.tcb.snd_una = self.tcb.iss;
                self.tcb.snd_nxt = self.tcb.iss;
                self.tcb.state = TcpState::SynReceived;
                self.send_segment(
                    flags::SYN | flags::ACK,
                    &[],
                    now,
                    self.model.s_in_call_out,
                    false,
                );
            }
            TcpState::SynSent if hdr.flags & (flags::SYN | flags::ACK) == flags::SYN | flags::ACK =>
            {
                self.tcb.irs = hdr.seq;
                self.tcb.rcv_nxt = hdr.seq.wrapping_add(1);
                self.tcb.process_ack(hdr.ack);
                self.tcb.state = TcpState::Established;
                self.tcb.rcv_adv = self.tcb.rcv_nxt.wrapping_add(self.tcb.rcv_wnd);
                self.send_pure_ack(now);
            }
            TcpState::SynReceived if hdr.flags & flags::ACK != 0 => {
                self.tcb.process_ack(hdr.ack);
                self.tcb.state = TcpState::Established;
                self.tcb.rcv_adv = self.tcb.rcv_nxt.wrapping_add(self.tcb.rcv_wnd);
            }
            TcpState::FinWait1 => {
                let ack_of_fin =
                    hdr.flags & flags::ACK != 0 && hdr.ack == self.tcb.snd_nxt;
                if ack_of_fin {
                    self.tcb.process_ack(hdr.ack);
                    self.tcb.state = TcpState::FinWait2;
                }
                if hdr.flags & flags::FIN != 0 {
                    // Peer closed too (possibly a simultaneous close).
                    self.tcb.rcv_nxt = hdr.seq.wrapping_add(1);
                    self.tcb.state = TcpState::TimeWait;
                    self.send_pure_ack(now);
                }
            }
            TcpState::FinWait2 if hdr.flags & flags::FIN != 0 => {
                self.tcb.rcv_nxt = hdr.seq.wrapping_add(1);
                self.tcb.state = TcpState::TimeWait;
                self.send_pure_ack(now);
            }
            TcpState::CloseWait if hdr.flags & flags::FIN != 0 => {
                // Retransmitted FIN while we await the local close.
                self.send_pure_ack(now);
            }
            TcpState::LastAck
                if hdr.flags & flags::ACK != 0 && hdr.ack == self.tcb.snd_nxt =>
            {
                self.tcb.process_ack(hdr.ack);
                self.tcb.state = TcpState::Closed;
            }
            TcpState::TimeWait if hdr.flags & flags::FIN != 0 => {
                // Peer retransmitted its FIN: re-acknowledge.
                self.send_pure_ack(now);
            }
            _ => {}
        }
    }

    /// Active close: send FIN and walk the teardown state machine.
    pub fn close(&mut self, now: Ns) {
        let next = match self.tcb.state {
            TcpState::Established => Some(TcpState::FinWait1),
            TcpState::CloseWait => Some(TcpState::LastAck),
            _ => None,
        };
        if let Some(next) = next {
            self.rec.enter(self.model.f_test_send);
            self.rec.seg(self.model.s_test_prep);
            self.send_segment(
                flags::FIN | flags::ACK,
                &[],
                now,
                self.model.s_test_call_tcp,
                true,
            );
            self.rec.leave();
            self.tcb.state = next;
        }
    }

    /// Pull in-order segments out of the out-of-order queue, returning
    /// them for delivery (so the application — and the echo service —
    /// sees them like any other data).
    fn drain_reass_q(&mut self) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        loop {
            let next =
                self.tcb.reass_q.iter().position(|(s, _)| *s == self.tcb.rcv_nxt);
            match next {
                Some(i) => {
                    let (_, data) = self.tcb.reass_q.remove(i);
                    self.tcb.rcv_nxt = self.tcb.rcv_nxt.wrapping_add(data.len() as u32);
                    out.push(data);
                }
                None => break,
            }
        }
        out
    }

    /// TCPTEST delivery (inside the recorded f_test_deliver activation).
    fn tcptest_deliver(&mut self, data: &[u8], now: Ns) {
        self.rec.seg(self.model.s_test_consume);
        self.delivered.push(data.to_vec());
        if self.echo_server {
            // Reply in place: the reply carries our ACK.
            let reply = data.to_vec();
            self.rec
                .call_with(self.model.s_test_reply_call, self.model.f_test_send, &[]);
            self.rec.seg(self.model.s_test_prep);
            self.send_segment(
                flags::ACK | flags::PSH,
                &reply,
                now,
                self.model.s_test_call_tcp,
                true,
            );
            self.rec.leave();
        }
    }

    /// Emit a pure ACK through tcp_output.
    fn send_pure_ack(&mut self, now: Ns) {
        self.tcb.ack_pending = false;
        self.send_segment(flags::ACK, &[], now, self.model.s_in_call_out, false);
    }

    // ---- timers ----------------------------------------------------------

    /// Fire any timers due at `now`.
    pub fn poll_timers(&mut self, now: Ns) {
        for (_, kind) in self.timers.expire(now) {
            match kind {
                TimerKind::Rexmit => self.on_rexmit_timeout(now),
                TimerKind::Persist => self.on_persist_timeout(now),
                TimerKind::DelAck => {
                    if self.tcb.ack_pending {
                        // The delayed-ACK handler is its own activation.
                        let m = self.model.clone();
                        self.rec.enter(m.f_tcp_timer);
                        self.rec.seg(m.s_rto_checks);
                        self.tcb.ack_pending = false;
                        self.send_segment(flags::ACK, &[], now, m.s_rto_call_out, false);
                        self.rec.leave();
                    }
                }
            }
        }
    }

    /// Persist timer: probe the closed window with one byte of the
    /// queued data.  If the window is really closed the receiver drops
    /// the byte but answers with an ACK carrying its window; once the
    /// window opens, the byte is accepted and the rest flushes.
    fn on_persist_timeout(&mut self, now: Ns) {
        self.tcb.persist_timer = None;
        if self.tcb.pending_send.is_empty() && !self.tcb.probe_outstanding {
            return;
        }
        if self.tcb.snd_wnd > 0 && !self.tcb.probe_outstanding {
            // The window opened while the timer was pending: flush.
            self.flush_pending(now);
            return;
        }
        let m = self.model.clone();
        let probe: Vec<u8>;
        if self.tcb.probe_outstanding {
            // Resend the probe already in the retransmission queue.
            match self.tcb.rexmit_q.first() {
                Some(e) => {
                    probe = e.payload.clone();
                    let seq = e.seq;
                    self.rec.enter(m.f_tcp_timer);
                    self.rec.seg(m.s_rto_checks);
                    let saved_nxt = self.tcb.snd_nxt;
                    self.tcb.snd_nxt = seq;
                    let mut msg = self.pool.alloc();
                    msg.append(&probe);
                    self.rec.call_with(m.s_rto_call_out, m.f_tcp_output, &[msg.sim_addr()]);
                    self.tcb.rexmit_q.remove(0);
                    self.tcp_output(flags::ACK, &probe, &mut msg, now);
                    self.rec.leave();
                    self.rec.leave();
                    self.pool.release(msg);
                    self.tcb.snd_nxt = saved_nxt.max(self.tcb.snd_nxt);
                }
                None => {
                    self.tcb.probe_outstanding = false;
                }
            }
        } else {
            // First probe: one byte of the queued data enters the
            // sequence space for real.
            probe = vec![self.tcb.pending_send.remove(0)];
            self.tcb.probe_outstanding = true;
            self.rec.enter(m.f_tcp_timer);
            self.rec.seg(m.s_rto_checks);
            let mut msg = self.pool.alloc();
            msg.append(&probe);
            self.rec.call_with(m.s_rto_call_out, m.f_tcp_output, &[msg.sim_addr()]);
            self.tcp_output(flags::ACK, &probe, &mut msg, now);
            self.rec.leave();
            self.rec.leave();
            self.pool.release(msg);
        }
        self.tcb.persist_timer =
            Some(self.timers.schedule(now + PERSIST_NS, TimerKind::Persist));
    }

    /// The peer's window opened: send the queued data.
    fn flush_pending(&mut self, now: Ns) {
        if self.tcb.pending_send.is_empty() {
            return;
        }
        let data = std::mem::take(&mut self.tcb.pending_send);
        if let Some(t) = self.tcb.persist_timer.take() {
            self.timers.cancel(t);
        }
        self.rec.enter(self.model.f_test_send);
        self.rec.seg(self.model.s_test_prep);
        self.send_segment(flags::ACK | flags::PSH, &data, now, self.model.s_test_call_tcp, true);
        self.rec.leave();
    }

    fn on_rexmit_timeout(&mut self, now: Ns) {
        if self.tcb.probe_outstanding {
            // Persist mode: the window-probe machinery owns
            // retransmission until the peer's window reopens.
            return;
        }
        if self.tcb.rexmit_q.is_empty() {
            self.tcb.rexmit_timer = None;
            return;
        }
        let m = self.model.clone();
        self.rec.enter(m.f_tcp_timer);
        self.rec.seg(m.s_rto_checks);
        self.tcb.on_loss();
        let entry = self.tcb.rexmit_q[0].clone();
        // Retransmit with the original sequence number.
        let saved_nxt = self.tcb.snd_nxt;
        self.tcb.snd_nxt = entry.seq;
        let mut msg = self.pool.alloc();
        msg.append(&entry.payload);
        self.rec.call_with(m.s_rto_call_out, m.f_tcp_output, &[msg.sim_addr()]);
        // Remove the queue entry so tcp_output's push doesn't duplicate.
        self.tcb.rexmit_q.remove(0);
        self.tcp_output(entry.flags, &entry.payload, &mut msg, now);
        self.rec.leave();
        self.pool.release(msg);
        self.tcb.snd_nxt = saved_nxt.max(self.tcb.snd_nxt);
        self.rec.leave();
    }
}
