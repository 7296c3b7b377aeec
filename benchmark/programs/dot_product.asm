; dot product of a and b into r4; word 0 holds the length n,
; a is at words 1..n+1 and b follows it
        li   r7, 0
        lw   r3, 0(r7)      ; remaining
        li   r1, 1          ; &a
        add  r2, r1, r3     ; &b
        li   r4, 0          ; acc
loop:
        lw   r5, (r1)
        lw   r6, (r2)
        mul  r5, r5, r6
        add  r4, r4, r5
        addi r1, r1, 1
        addi r2, r2, 1
        subi r3, r3, 1
        bne  r3, r7, loop
        halt
