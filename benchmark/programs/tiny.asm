; a few instructions on two operands given as initial registers r1, r2:
; simulation is trivial, so request decoding and encoding dominate
        mul  r3, r1, r2
        add  r4, r3, r1
        xor  r5, r4, r2
        halt
