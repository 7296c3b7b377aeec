; dependent div chains, 80 rounds; the chain value starts in r1 and the
; per-lane seed in r5 is folded back in every round (both come from the
; initial registers), so lanes compute different values on identical
; control flow
        li   r2, 3
        li   r3, 80
        li   r7, 0
loop:
        div  r4, r1, r2
        div  r4, r4, r2
        div  r4, r4, r2
        div  r1, r4, r2     ; loop-carried: serial at any window size
        add  r1, r1, r5
        subi r3, r3, 1
        bne  r3, r7, loop
        halt
