"""Wireless RF communication substrate.

Implements the paper's communication models (Sections 5.1-5.2): analytical
bit-error-rate theory for OOK / PSK / M-QAM, the "QAM equation" solver that
derives the required Eb/N0 for a target BER, the transcutaneous link budget
(path loss + tissue margin + receiver noise), energy-per-bit and Eq. 9
communication power, a Monte-Carlo AWGN channel to validate the closed
forms, and a CRC-framed packetizer for the streaming substrate.
"""
